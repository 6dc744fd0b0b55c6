//! Deterministic fault injection and recovery policy for the threaded
//! runtime.
//!
//! The paper's testbed was ten commodity PCs with IDE disks and Fast
//! Ethernet — hardware that fails. The threaded runtime substitutes OS
//! threads and channels for that cluster, so this module substitutes for
//! its failures: a [`FaultPlan`] describes *which* faults occur (transient
//! chunk-read errors, slow reads, dropped or delayed interconnect
//! messages, scratch-disk write failures, compute-worker crashes), and a
//! [`FaultInjector`] realizes the plan deterministically from a single
//! `u64` seed, so any failing execution can be replayed exactly.
//!
//! The eight probability-driven kinds ([`Fault`]) are the rows of one
//! table: JSON keys, event labels, draw salt, shared counter, and whether
//! the kind counts against the budgets. One private path draws, caps,
//! counts and logs every kind; each site method only names the kinds it
//! draws, in order, and what an injection does there.
//!
//! Determinism model: every `(site, stream)` pair keeps its own draw
//! counter; draw `n` of stream `w` at site `s` is
//! `splitmix64(seed ⊕ salt(s) ⊕ mix(w) ⊕ mix(n))` compared against the
//! site's probability. A stream names work that one thread at a time
//! does within an execution: a chunk read draws on its sub-table's
//! stream (a scan has one reader per node, GH one storage worker per
//! node, and IJ's schedule keeps each component whole on one compute
//! node), a frame on its sending storage node's, a scratch write or
//! read-back on its compute node's queue. So the draws each stream sees
//! are a pure function of the seed, whatever the thread interleaving.
//! What interleaving still decides is which fired draw claims the last
//! unit of a per-kind cap or of the global budget: where a cap binds,
//! the event log can differ from run to run.
//! A retry of the same operation still gets a *fresh* draw — injected
//! faults are transient by construction. Two budgets bound the chaos: a
//! per-kind cap ([`FaultPlan::num`]) and a global [`FaultPlan::max_faults`]
//! cap. Once a budget is exhausted the injector stops firing, so any
//! execution with enough retry attempts provably completes. Delays are
//! counted in the statistics but not against the budgets: they never
//! threaten correctness, only pacing.
//!
//! [`RecoveryPolicy`] is the other half: bounded retries with exponential
//! backoff under the query's [`CancelToken`], used by the join runtimes
//! around every fetch, send, and scratch write.
//!
//! Silent corruption is injected the same way but detected differently:
//! the corruption kinds ([`Fault::ChunkCorrupt`], [`Fault::FrameCorrupt`],
//! [`Fault::ScratchCorrupt`]) flip one payload byte *after* the producer
//! checksummed it, so only the [`crate::checksum`] verification at the
//! consumer can catch the damage. Corruptions only target payloads that
//! carry a checksum — an undetectable flip would silently corrupt
//! results, which is exactly what the chaos suite asserts cannot happen.

use crate::cancel::CancelToken;
use orv_obs::{names, obj, EventLog, JsonValue};
use orv_types::{Error, Result};
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::ops::{Index, IndexMut};
use std::sync::Arc;
use std::time::Duration;

type Map = BTreeMap<String, JsonValue>;

/// Marker every injected worker panic message carries, so test harnesses
/// can tell deliberate crashes from real bugs (see
/// [`silence_injected_panics`]).
pub const INJECTED_PANIC_MARKER: &str = "injected worker panic";

/// Crash one compute worker deterministically: the worker panics at its
/// checkpoint once it has completed `after_ops` operations (pairs for IJ,
/// batches/buckets for GH). One-shot — a worker crashes at most once per
/// spec.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WorkerPanicSpec {
    /// Compute-worker index (IJ node index / GH compute node index).
    pub worker: usize,
    /// Number of completed operations before the panic fires.
    pub after_ops: u64,
}

/// Kill one federation engine shard deterministically: after the shard
/// has served `after_subqueries` sub-queries, every further sub-query it
/// is handed fails with a typed `Cluster` error. Permanent — unlike the
/// transient kinds, a dead shard never comes back; only replicas answer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardDeathSpec {
    /// Federation shard index.
    pub shard: usize,
    /// Sub-queries the shard serves before dying.
    pub after_subqueries: u64,
}

/// A seeded client flood: an overload *storm* rather than a component
/// fault. The injector itself does not spawn clients — the load harness
/// (bench or chaos test) reads these specs off the armed plan and drives
/// `clients × queries_per_client` extra submissions once `after_queries`
/// baseline queries have been issued. Living inside [`FaultPlan`] means
/// the storm is serialized, logged and replayed with the same machinery
/// as every other fault kind.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClientFloodSpec {
    /// Baseline queries issued before the flood starts.
    pub after_queries: u64,
    /// Concurrent flood clients the harness must add.
    pub clients: u64,
    /// Queries each flood client submits.
    pub queries_per_client: u64,
}

/// A slow-shard storm: every sub-query the shard serves after
/// `after_subqueries`, up to `storm_len` of them, sleeps `delay_ms`
/// (cancellably) first — a sustained straggler window, the load pattern
/// that sets off retry storms when retries are unbudgeted. A storm of
/// length one is a one-shot straggler, the single slow flight a hedge
/// races against.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardSlowStormSpec {
    /// Federation shard index.
    pub shard: usize,
    /// Sub-queries the shard serves before the storm opens.
    pub after_subqueries: u64,
    /// Injected delay per sub-query inside the storm, milliseconds.
    pub delay_ms: u64,
    /// Consecutive sub-queries the storm slows before it ends.
    pub storm_len: u64,
}

/// The probability-driven fault kinds: each is drawn per operation at its
/// site with the plan's probability for it (see [`FaultPlan::prob`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// A chunk read fails with a transient I/O error.
    ReadError,
    /// A chunk read sleeps first.
    ReadDelay,
    /// An interconnect send is lost before delivery.
    SendDrop,
    /// An interconnect send is delivered late.
    SendDelay,
    /// A scratch bucket write fails before any byte lands.
    ScratchError,
    /// One byte of a chunk page flips after its generation-time checksum.
    ChunkCorrupt,
    /// One byte of an interconnect frame flips after the sender sealed it.
    FrameCorrupt,
    /// One byte of a scratch bucket flips on its way back from the disk.
    ScratchCorrupt,
}

const KINDS: usize = 8;

/// What distinguishes one [`Fault`] kind from another; everything else
/// about drawing, capping, counting and logging is shared.
struct Row {
    /// JSON keys of the kind's probability and of its number (its cap, or
    /// a delay kind's delay) in a `fault_plan` payload.
    prob_key: &'static str,
    num_key: &'static str,
    /// `kind` and `site` labels of the kind's `fault_injected` events.
    kind: &'static str,
    site: &'static str,
    /// Salt of the draw hash (and of a corruption's offset/mask hash).
    salt: u64,
    /// Counter key: kinds drawn at one site share one counter per stream,
    /// salted apart by `salt`.
    counter: u64,
    /// Whether an injection takes a unit of the kind's cap and of the
    /// global budget. Delays do not: they never threaten correctness.
    capped: bool,
}

/// Per-site salts keeping the draw streams independent.
const SITE_READ: u64 = 0x52_45_41_44; // "READ"
const SITE_SEND: u64 = 0x53_45_4E_44; // "SEND"
const SITE_SCRATCH: u64 = 0x53_43_52_54; // "SCRT"
const SITE_CHUNK_CORRUPT: u64 = 0x43_43_4F_52; // "CCOR"
const SITE_FRAME_CORRUPT: u64 = 0x46_43_4F_52; // "FCOR"
const SITE_SCRATCH_CORRUPT: u64 = 0x53_43_4F_52; // "SCOR"
/// Ledger keys of the checkpoints' operation counts.
const SITE_WORKER: u64 = 0x57_4F_52_4B; // "WORK"
const SITE_SHARD: u64 = 0x53_48_52_44; // "SHRD"

/// One row per [`Fault`], in declaration order.
#[rustfmt::skip]
const TABLE: [Row; KINDS] = [
    Row { prob_key: "read_error_prob", num_key: "max_read_errors", kind: "read_error",
          site: "chunk_read", salt: SITE_READ, counter: SITE_READ, capped: true },
    Row { prob_key: "read_delay_prob", num_key: "read_delay_ms", kind: "read_delay",
          site: "chunk_read", salt: SITE_READ ^ 1, counter: SITE_READ, capped: false },
    Row { prob_key: "send_drop_prob", num_key: "max_send_drops", kind: "send_drop",
          site: "send", salt: SITE_SEND, counter: SITE_SEND, capped: true },
    Row { prob_key: "send_delay_prob", num_key: "send_delay_ms", kind: "send_delay",
          site: "send", salt: SITE_SEND ^ 1, counter: SITE_SEND, capped: false },
    Row { prob_key: "scratch_error_prob", num_key: "max_scratch_errors", kind: "scratch_error",
          site: "scratch_write", salt: SITE_SCRATCH, counter: SITE_SCRATCH, capped: true },
    Row { prob_key: "chunk_corrupt_prob", num_key: "max_chunk_corruptions", kind: "chunk_corrupt",
          site: "chunk_page", salt: SITE_CHUNK_CORRUPT, counter: SITE_CHUNK_CORRUPT, capped: true },
    Row { prob_key: "frame_corrupt_prob", num_key: "max_frame_corruptions", kind: "frame_corrupt",
          site: "frame", salt: SITE_FRAME_CORRUPT, counter: SITE_FRAME_CORRUPT, capped: true },
    Row { prob_key: "scratch_corrupt_prob", num_key: "max_scratch_corruptions",
          kind: "scratch_corrupt", site: "scratch_read", salt: SITE_SCRATCH_CORRUPT,
          counter: SITE_SCRATCH_CORRUPT, capped: true },
];

impl Fault {
    /// Every kind, in table order.
    pub fn all() -> [Fault; KINDS] {
        use Fault::*;
        [
            ReadError,
            ReadDelay,
            SendDrop,
            SendDelay,
            ScratchError,
            ChunkCorrupt,
            FrameCorrupt,
            ScratchCorrupt,
        ]
    }

    /// Whether the kind flips a checksummed payload byte.
    pub fn is_corruption(self) -> bool {
        matches!(
            self,
            Fault::ChunkCorrupt | Fault::FrameCorrupt | Fault::ScratchCorrupt
        )
    }

    fn row(self) -> &'static Row {
        &TABLE[self as usize]
    }
}

/// One value per [`Fault`] kind, indexed by the kind.
#[derive(Clone, Copy, Default, PartialEq, Eq)]
pub struct PerFault<T>([T; KINDS]);

impl<T> Index<Fault> for PerFault<T> {
    type Output = T;
    fn index(&self, kind: Fault) -> &T {
        &self.0[kind as usize]
    }
}

impl<T> IndexMut<Fault> for PerFault<T> {
    fn index_mut(&mut self, kind: Fault) -> &mut T {
        &mut self.0[kind as usize]
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for PerFault<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map()
            .entries(Fault::all().map(|k| (k, &self[k])))
            .finish()
    }
}

/// A complete, seed-reproducible description of the faults one execution
/// experiences. Serializable (see [`FaultPlan::to_json_value`]) so a
/// failing plan can be attached to a bug report and replayed.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// Seed of the deterministic draw stream.
    pub seed: u64,
    /// Per kind, the probability that one draw at its site fires.
    pub prob: PerFault<f64>,
    /// Per kind, the cap on its injections — or, for
    /// [`Fault::ReadDelay`] and [`Fault::SendDelay`], the length of one
    /// injected delay in milliseconds.
    pub num: PerFault<u64>,
    /// Deterministic compute-worker crashes.
    pub worker_panics: Vec<WorkerPanicSpec>,
    /// Deterministic federation shard deaths (permanent).
    pub shard_deaths: Vec<ShardDeathSpec>,
    /// Seeded client floods (consumed by the load harness, not the
    /// injector).
    pub client_floods: Vec<ClientFloodSpec>,
    /// Slow-shard storms (windows of consecutive delays; a one-shot
    /// straggler is a storm of length one).
    pub shard_slow_storms: Vec<ShardSlowStormSpec>,
    /// Global cap across *all* correctness-affecting faults (errors,
    /// drops, corruptions, panics, shard deaths — not delays). Guarantees
    /// transience for every kind except shard deaths, which are
    /// deliberately permanent once fired.
    pub max_faults: u64,
}

impl FaultPlan {
    /// The empty plan: no faults ever fire.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// This plan with `kind` drawn at probability `prob`; `num` is the
    /// kind's cap, or its delay in milliseconds for the two delay kinds.
    pub fn with(mut self, kind: Fault, prob: f64, num: u64) -> Self {
        self.prob[kind] = prob;
        self.num[kind] = num;
        self
    }

    /// A representative mixed plan derived entirely from `seed`: moderate
    /// transient read/send/scratch faults plus one compute-worker crash,
    /// capped so a runtime with default [`RecoveryPolicy`] retries always
    /// recovers. Same seed → same plan → same faults.
    pub fn from_seed(seed: u64) -> Self {
        let d = splitmix64(seed);
        FaultPlan {
            seed,
            worker_panics: vec![WorkerPanicSpec {
                worker: (d >> 16) as usize % 2,
                after_ops: (d >> 24) % 3,
            }],
            max_faults: 7,
            ..Self::none()
        }
        .with(Fault::ReadError, 0.25, 2)
        .with(Fault::ReadDelay, 0.10, 1 + d % 3)
        .with(Fault::SendDrop, 0.20, 2)
        .with(Fault::SendDelay, 0.10, 1 + (d >> 8) % 3)
        .with(Fault::ScratchError, 0.15, 2)
    }

    /// [`FaultPlan::from_seed`] plus silent corruption on every checksummed
    /// boundary (chunk pages, interconnect frames, scratch reads) — the
    /// corruption-heavy plan the chaos CI matrix runs. The seed's worker
    /// crash gets a twin on the other worker of two, so a two-node IJ
    /// loses both workers and fails over to GH, whose frames and scratch
    /// the plan corrupts too. `max_faults` is the sum of every cap, so
    /// the global budget never binds. Pair it with a [`RecoveryPolicy`]
    /// whose `max_attempts` exceeds the sum of the per-kind caps that can
    /// hit one operation (errors + corruptions), e.g. 8, so recovery
    /// provably outlasts the budgets.
    pub fn corrupting(seed: u64) -> Self {
        let mut plan = Self::from_seed(seed);
        let mut twin = plan.worker_panics[0].clone();
        twin.worker = 1 - twin.worker;
        plan.worker_panics.push(twin);
        plan.max_faults = 14;
        plan.with(Fault::ChunkCorrupt, 0.25, 2)
            .with(Fault::FrameCorrupt, 0.20, 2)
            .with(Fault::ScratchCorrupt, 0.20, 2)
    }

    /// The seeded overload plan the chaos matrix runs: a 2× client flood
    /// plus one sustained slow-shard storm, derived entirely from
    /// `seed`. `baseline_clients` is the harness's steady-state client
    /// count (the flood doubles it); `shards` bounds the storm's victim
    /// shard. No correctness-affecting faults fire — overload runs must
    /// show *clean degradation*, so every admitted query still has to
    /// come back byte-identical to the oracle.
    pub fn load_storm(seed: u64, baseline_clients: u64, shards: usize) -> Self {
        let d = splitmix64(seed);
        FaultPlan {
            seed,
            client_floods: vec![ClientFloodSpec {
                after_queries: 2 + d % 4,
                clients: baseline_clients,
                queries_per_client: 4 + (d >> 8) % 4,
            }],
            shard_slow_storms: vec![ShardSlowStormSpec {
                shard: (d >> 16) as usize % shards.max(1),
                after_subqueries: (d >> 24) % 3,
                delay_ms: 40 + (d >> 32) % 40,
                storm_len: 6 + (d >> 40) % 6,
            }],
            ..Self::none()
        }
    }

    /// Serialize the plan as a JSON value (the payload of the
    /// `fault_plan` event): each kind's two numbers under its table keys,
    /// and the spec lists.
    pub fn to_json_value(&self) -> JsonValue {
        let mut m = Map::new();
        for k in Fault::all() {
            m.insert(k.row().prob_key.to_string(), self.prob[k].into());
            m.insert(k.row().num_key.to_string(), self.num[k].into());
        }
        m.insert("seed".into(), self.seed.into());
        m.insert("max_faults".into(), self.max_faults.into());
        put_list(&mut m, "worker_panics", &self.worker_panics, |w| {
            obj([
                ("worker", w.worker.into()),
                ("after_ops", w.after_ops.into()),
            ])
        });
        put_list(&mut m, "shard_deaths", &self.shard_deaths, |s| {
            obj([
                ("shard", s.shard.into()),
                ("after_subqueries", s.after_subqueries.into()),
            ])
        });
        put_list(&mut m, "client_floods", &self.client_floods, |c| {
            obj([
                ("after_queries", c.after_queries.into()),
                ("clients", c.clients.into()),
                ("queries_per_client", c.queries_per_client.into()),
            ])
        });
        put_list(&mut m, "shard_slow_storms", &self.shard_slow_storms, |s| {
            obj([
                ("shard", s.shard.into()),
                ("after_subqueries", s.after_subqueries.into()),
                ("delay_ms", s.delay_ms.into()),
                ("storm_len", s.storm_len.into()),
            ])
        });
        JsonValue::Object(m)
    }

    /// Reconstruct a plan from [`FaultPlan::to_json_value`] output. Keys
    /// absent from logs written before their kind existed read as zero or
    /// empty; a key that is present must hold the right type. A storm
    /// without `storm_len` is a one-shot slowdown: `shard_slows` entries,
    /// logged before they became storms, parse as storms of length one.
    pub fn from_json_value(v: &JsonValue) -> Result<Self> {
        let storm = |s: &JsonValue| {
            Ok(ShardSlowStormSpec {
                shard: s.req_u64("shard")? as usize,
                after_subqueries: s.req_u64("after_subqueries")?,
                delay_ms: s.req_u64("delay_ms")?,
                storm_len: s
                    .get("storm_len")
                    .map_or(Ok(1), |_| s.req_u64("storm_len"))?,
            })
        };
        let mut plan = FaultPlan {
            seed: v.req_u64("seed")?,
            worker_panics: specs(v, "worker_panics", |w| {
                Ok(WorkerPanicSpec {
                    worker: w.req_u64("worker")? as usize,
                    after_ops: w.req_u64("after_ops")?,
                })
            })?,
            shard_deaths: specs(v, "shard_deaths", |s| {
                Ok(ShardDeathSpec {
                    shard: s.req_u64("shard")? as usize,
                    after_subqueries: s.req_u64("after_subqueries")?,
                })
            })?,
            client_floods: specs(v, "client_floods", |c| {
                Ok(ClientFloodSpec {
                    after_queries: c.req_u64("after_queries")?,
                    clients: c.req_u64("clients")?,
                    queries_per_client: c.req_u64("queries_per_client")?,
                })
            })?,
            shard_slow_storms: specs(v, "shard_slow_storms", storm)?,
            max_faults: v.req_u64("max_faults")?,
            ..FaultPlan::none()
        };
        plan.shard_slow_storms
            .extend(specs(v, "shard_slows", storm)?);
        for k in Fault::all() {
            let (p, n) = (k.row().prob_key, k.row().num_key);
            plan.prob[k] = v.get(p).map_or(Ok(0.0), |_| v.req_f64(p))?;
            plan.num[k] = v.get(n).map_or(Ok(0), |_| v.req_u64(n))?;
        }
        Ok(plan)
    }
}

/// Insert `specs` under `key` as an array, each entry built by `to_json`.
fn put_list<T>(m: &mut Map, key: &str, specs: &[T], to_json: impl Fn(&T) -> JsonValue) {
    m.insert(
        key.into(),
        JsonValue::Array(specs.iter().map(to_json).collect()),
    );
}

/// The spec list under `key` (empty when absent), each entry parsed by
/// `parse`.
fn specs<T>(v: &JsonValue, key: &str, parse: impl Fn(&JsonValue) -> Result<T>) -> Result<Vec<T>> {
    let Some(entries) = v.get(key) else {
        return Ok(Vec::new());
    };
    entries
        .as_array()
        .ok_or_else(|| Error::Config(format!("`{key}` is not an array")))?
        .iter()
        .map(parse)
        .collect()
}

/// What the injector decides about one interconnect send.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SendVerdict {
    /// Deliver normally.
    Deliver,
    /// The message is lost; the sender must retry (a fresh draw) or give
    /// up with a typed error.
    Drop,
    /// Deliver after sleeping this long.
    Delay(Duration),
}

/// Counts of faults actually injected, for assertions and reports.
/// Index it by [`Fault`] for the probability-driven kinds.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct FaultStats {
    injected: PerFault<u64>,
    /// Worker panics fired.
    pub worker_panics: u64,
    /// Federation shards killed.
    pub shard_deaths: u64,
    /// Slow-shard storm delays injected (one per slowed sub-query).
    pub shard_slow_storm_delays: u64,
}

impl Index<Fault> for FaultStats {
    type Output = u64;
    fn index(&self, kind: Fault) -> &u64 {
        &self.injected[kind]
    }
}

impl FaultStats {
    /// Total injected corruptions across all three boundaries.
    pub fn corruptions(&self) -> u64 {
        Fault::all()
            .into_iter()
            .filter(|k| k.is_corruption())
            .map(|k| self[k])
            .sum()
    }
}

/// splitmix64 — the one-instruction-wide PRNG the rest of the workspace
/// already uses for deterministic hashing.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Realizes a [`FaultPlan`] with deterministic draws, per-kind caps and a
/// global budget. One injector is shared (via `Arc`) by every thread of
/// one execution; create a fresh injector per execution so budgets reset.
/// Every count lives in one `Ledger` behind one lock; a site the plan
/// never arms returns before taking it.
pub struct FaultInjector {
    plan: FaultPlan,
    ledger: Mutex<Ledger>,
    events: EventLog,
}

/// Everything an injector counts. Nothing sleeps while it is locked: a
/// caller sleeps out an injected delay after the lock is released.
#[derive(Default)]
struct Ledger {
    /// Draws of the drawn kinds and operations of the checkpoints, keyed
    /// by `(site, stream)`: a [`Row::counter`] and the caller's stream, or
    /// a checkpoint and its worker or shard.
    counts: HashMap<(u64, u64), u64>,
    /// Units left of the global budget.
    budget: u64,
    /// Units left of each kind's cap (delay kinds never take from theirs).
    left: PerFault<u64>,
    /// Times each spec has fired, keyed by its event kind and its index in
    /// the plan's list of that kind.
    fired: HashMap<(&'static str, usize), u64>,
    stats: FaultStats,
}

impl Ledger {
    /// Count one at `(site, stream)`; returns the count before it.
    fn next(&mut self, site: u64, stream: u64) -> u64 {
        let n = self.counts.entry((site, stream)).or_insert(0);
        *n += 1;
        *n - 1
    }

    /// Take one unit of `kind`'s cap and of the global budget; both must
    /// have a unit left.
    fn take(&mut self, kind: Fault) -> bool {
        let ok = self.budget > 0 && self.left[kind] > 0;
        if ok {
            self.budget -= 1;
            self.left[kind] -= 1;
        }
        ok
    }

    /// Fire spec `i` of `kind`'s list once more, if it has fired fewer
    /// than `times` times and, when `budgeted`, the global budget has a
    /// unit left. A refusal is final: the budget only shrinks.
    fn fire(&mut self, kind: &'static str, i: usize, times: u64, budgeted: bool) -> bool {
        let fired = self.fired.get(&(kind, i)).copied().unwrap_or(0);
        if fired >= times || (budgeted && self.budget == 0) {
            return false;
        }
        self.budget -= budgeted as u64;
        self.fired.insert((kind, i), fired + 1);
        true
    }
}

impl std::fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultInjector")
            .field("plan", &self.plan)
            .finish()
    }
}

impl FaultInjector {
    /// Injector for `plan` logging every injected fault into `events`
    /// (pass [`EventLog::disabled`] for none). Emits a `fault_plan` event
    /// up front so the run is replayable from the log alone.
    pub fn new(plan: FaultPlan, events: EventLog) -> Arc<Self> {
        events.emit(names::FAULT_PLAN, || vec![("plan", plan.to_json_value())]);
        Arc::new(FaultInjector {
            ledger: Mutex::new(Ledger {
                budget: plan.max_faults,
                left: plan.num,
                ..Ledger::default()
            }),
            events,
            plan,
        })
    }

    /// A no-op injector (the empty plan); the default everywhere.
    pub fn disabled() -> Arc<Self> {
        FaultInjector::new(FaultPlan::none(), EventLog::disabled())
    }

    /// Faults injected so far.
    pub fn stats(&self) -> FaultStats {
        self.ledger.lock().stats
    }

    /// The event log injected faults are recorded into. Runtimes emit
    /// their `corruption_detected` events here so detections land beside
    /// the injections they answer.
    pub fn events(&self) -> &EventLog {
        &self.events
    }

    /// Whether this injector can ever inject `kind` (its probability is
    /// positive). A site with work to do before it can be hit — the BDS
    /// copies a page so a flip never reaches the store — asks first.
    pub fn armed(&self, kind: Fault) -> bool {
        self.plan.prob[kind] > 0.0
    }

    /// The one injection path of every [`Fault`] kind: draw `kinds` on
    /// `stream` in order, stopping at the first one injected. Draw `n` of a
    /// stream fires iff `splitmix64(seed ⊕ salt·φ ⊕ stream·ψ ⊕ n·χ) < prob`,
    /// `n` counted per `(counter, stream)` and advanced only by an armed
    /// kind. A fired draw injects if, for a capped kind, its cap and the
    /// global budget both have a unit left; it is then counted and logged.
    /// A corruption also flips one byte of `payload` (never drawn for an
    /// empty one) at an offset and nonzero mask from the draw hash, and
    /// returns them beside the kind. The ledger is held from draw to log so
    /// each stream's events land in draw order, and across all of `kinds`
    /// so one operation's draws are consecutive; a caller sleeps out an
    /// injected delay after it is released.
    fn inject(
        &self,
        kinds: &[Fault],
        stream: u64,
        payload: &mut [u8],
    ) -> Option<(Fault, Option<(usize, u8)>)> {
        if !kinds.iter().any(|&k| self.armed(k)) {
            return None;
        }
        let mut ledger = self.ledger.lock();
        kinds.iter().find_map(|&kind| {
            let (row, prob) = (kind.row(), self.plan.prob[kind]);
            if prob <= 0.0 || (kind.is_corruption() && payload.is_empty()) {
                return None;
            }
            let draw = ledger.next(row.counter, stream);
            let h = splitmix64(
                self.plan.seed
                    ^ row.salt.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    ^ stream.wrapping_mul(0x2545_F491_4F6C_DD1D)
                    ^ draw.wrapping_mul(0xD6E8_FEB8_6659_FD93),
            );
            // 53 uniform mantissa bits → [0, 1).
            if (h >> 11) as f64 / (1u64 << 53) as f64 >= prob || (row.capped && !ledger.take(kind))
            {
                return None;
            }
            let flip = kind.is_corruption().then(|| {
                let h = splitmix64(
                    self.plan.seed
                        ^ row.salt
                        ^ stream.wrapping_mul(0x2545_F491_4F6C_DD1D)
                        ^ draw.wrapping_mul(0xA076_1D64_78BD_642F),
                );
                let offset = (h % payload.len() as u64) as usize;
                let mask = ((h >> 32) as u8) | 1; // nonzero: the byte really flips
                payload[offset] ^= mask;
                (offset, mask)
            });
            ledger.stats.injected[kind] += 1;
            self.events.emit(names::FAULT_INJECTED, || {
                let mut fields = vec![
                    ("kind", row.kind.into()),
                    ("site", row.site.into()),
                    ("stream", stream.into()),
                    ("draw", draw.into()),
                ];
                if let Some((offset, _)) = flip {
                    fields.push(("offset", offset.into()));
                }
                fields
            });
            Some((kind, flip))
        })
    }

    /// Call at the top of every chunk read, passing the sub-table's draw
    /// stream. Sleeps for an injected slow read (cancellably — a
    /// cancelled query must not pay the injected latency); returns a
    /// typed transient error for an injected read fault. The delay is
    /// drawn first, the error second, off one counter.
    pub fn before_chunk_read(&self, stream: u64, cancel: &CancelToken) -> Result<()> {
        if self.inject(&[Fault::ReadDelay], stream, &mut []).is_some() {
            cancel.sleep(Duration::from_millis(self.plan.num[Fault::ReadDelay]))?;
        }
        if self.inject(&[Fault::ReadError], stream, &mut []).is_some() {
            return Err(Error::Cluster("injected transient chunk-read fault".into()));
        }
        Ok(())
    }

    /// Ask before every interconnect send, passing the sending node's
    /// index as the draw stream; a `Drop` verdict means the message was
    /// lost and the caller should retry with a fresh draw. The drop is
    /// drawn first; the delay only when no drop was taken.
    pub fn send_verdict(&self, stream: u64) -> SendVerdict {
        match self.inject(&[Fault::SendDrop, Fault::SendDelay], stream, &mut []) {
            Some((Fault::SendDrop, _)) => SendVerdict::Drop,
            Some(_) => SendVerdict::Delay(Duration::from_millis(self.plan.num[Fault::SendDelay])),
            None => SendVerdict::Deliver,
        }
    }

    /// Call before every scratch bucket write, passing the writing
    /// compute node's index as the draw stream; errors fire *before* any
    /// bytes land, so a retry never duplicates data.
    pub fn before_scratch_write(&self, stream: u64) -> Result<()> {
        match self.inject(&[Fault::ScratchError], stream, &mut []) {
            Some(_) => Err(Error::Cluster(
                "injected transient scratch-write fault".into(),
            )),
            None => Ok(()),
        }
    }

    /// Maybe flip one byte of a chunk page *after* its checksum was
    /// computed at generation time (`stream` = the sub-table's, as for
    /// [`FaultInjector::before_chunk_read`]).
    /// Call only on pages that carry a checksum — an unverifiable flip
    /// would silently corrupt results. Returns the flip `(offset, mask)`.
    pub fn corrupt_chunk_page(&self, stream: u64, bytes: &mut [u8]) -> Option<(usize, u8)> {
        self.inject(&[Fault::ChunkCorrupt], stream, bytes)?.1
    }

    /// Maybe flip one byte of an interconnect frame in flight, after the
    /// sender sealed the frame checksum (`stream` = the sending node).
    /// Returns the flip so the sender can retransmit from its pristine
    /// copy once verification catches the damage (`bytes[off] ^= mask`
    /// restores it exactly).
    pub fn corrupt_frame(&self, stream: u64, bytes: &mut [u8]) -> Option<(usize, u8)> {
        self.inject(&[Fault::FrameCorrupt], stream, bytes)?.1
    }

    /// Maybe flip one byte of a scratch bucket on its way back from the
    /// scratch disk (`stream` = the reading compute node; the durable
    /// bucket stays pristine, so a re-read after verification fails
    /// recovers).
    pub fn corrupt_scratch_read(&self, stream: u64, bytes: &mut [u8]) -> Option<(usize, u8)> {
        self.inject(&[Fault::ScratchCorrupt], stream, bytes)?.1
    }

    /// Log a spec-driven fault (a worker panic, a shard slowdown or death):
    /// the actor is the draw stream and the operation count the draw.
    fn emit_spec_fault(
        &self,
        kind: &'static str,
        site: &'static str,
        (actor, id): (&'static str, usize),
        ops: u64,
    ) {
        self.events.emit(names::FAULT_INJECTED, || {
            vec![
                ("kind", kind.into()),
                ("site", site.into()),
                ("stream", id.into()),
                ("draw", ops.into()),
                (actor, id.into()),
            ]
        });
    }

    /// Compute-worker checkpoint: call once per completed unit of work.
    /// Panics (deliberately) when a [`WorkerPanicSpec`] for this worker is
    /// due — the worker harness ([`crate::workers::run_workers`]) contains
    /// the panic and the runtimes turn it into recovery or a typed error.
    #[allow(
        clippy::panic,
        reason = "the injected crash IS the fault: run_workers contains it and the marker identifies it"
    )]
    pub fn worker_checkpoint(&self, worker: usize) {
        if self.plan.worker_panics.is_empty() {
            return;
        }
        let mut ledger = self.ledger.lock();
        let ops = ledger.next(SITE_WORKER, worker as u64);
        let mut specs = self.plan.worker_panics.iter().enumerate();
        if !specs.any(|(i, spec)| {
            spec.worker == worker
                && ops >= spec.after_ops
                && ledger.fire("worker_panic", i, 1, true)
        }) {
            return;
        }
        ledger.stats.worker_panics += 1;
        self.emit_spec_fault("worker_panic", "worker_checkpoint", ("worker", worker), ops);
        drop(ledger);
        panic!("{INJECTED_PANIC_MARKER}: worker {worker} after {ops} ops");
    }

    /// Federation shard checkpoint: call once per sub-query the shard is
    /// handed, *before* executing it. Returns the shard's injected fate:
    ///
    /// * inside a due [`ShardSlowStormSpec`]'s window, sleeps `delay_ms`
    ///   (cancellably) first;
    /// * a fired [`ShardDeathSpec`] fails this and **every later**
    ///   sub-query with a typed `Cluster` error — shard death is
    ///   permanent, so the router must fail over to replicas.
    ///
    /// The first death takes one unit of the global budget; staying dead
    /// afterwards is free (one fault, many observations). A death the
    /// budget refuses never fires: the budget only shrinks.
    pub fn shard_checkpoint(&self, shard: usize, cancel: &CancelToken) -> Result<()> {
        if self.plan.shard_deaths.is_empty() && self.plan.shard_slow_storms.is_empty() {
            return Ok(());
        }
        let down = || Err(Error::Cluster(format!("injected: shard {shard} is down")));
        let mut deaths = self.plan.shard_deaths.iter().enumerate();
        let (delay_ms, dies) = {
            let mut ledger = self.ledger.lock();
            // A dead shard stays dead: fail fast without advancing counters.
            let dead = |(i, spec): (usize, &ShardDeathSpec)| {
                spec.shard == shard && ledger.fired.contains_key(&("shard_death", i))
            };
            if deaths.clone().any(dead) {
                return down();
            }
            let ops = ledger.next(SITE_SHARD, shard as u64);
            // Storms slow a *window* of consecutive sub-queries: each
            // delay is one firing of the spec, up to its storm_len.
            let mut delay_ms = None;
            for (i, spec) in self.plan.shard_slow_storms.iter().enumerate() {
                if spec.shard == shard
                    && ops >= spec.after_subqueries
                    && ledger.fire("shard_slow_storm", i, spec.storm_len, false)
                {
                    ledger.stats.shard_slow_storm_delays += 1;
                    self.emit_spec_fault(
                        "shard_slow_storm",
                        "shard_checkpoint",
                        ("shard", shard),
                        ops,
                    );
                    delay_ms = Some(delay_ms.unwrap_or(0) + spec.delay_ms);
                }
            }
            let dies = deaths.any(|(i, spec)| {
                spec.shard == shard
                    && ops >= spec.after_subqueries
                    && ledger.fire("shard_death", i, 1, true)
            });
            if dies {
                ledger.stats.shard_deaths += 1;
                self.emit_spec_fault("shard_death", "shard_checkpoint", ("shard", shard), ops);
            }
            (delay_ms, dies)
        };
        if let Some(ms) = delay_ms {
            cancel.sleep(Duration::from_millis(ms))?;
        }
        if dies {
            return down();
        }
        Ok(())
    }
}

/// Bounded-retry policy the join runtimes wrap around every fetch, send
/// and scratch access: up to `max_attempts` tries with exponential backoff
/// (capped at 250 ms per sleep), for as long as the query's token lets it.
///
/// [`RecoveryPolicy::run_cancellable`] is the one retry loop of the join
/// runtimes: a caller hands it the fallible attempt as a closure and gets
/// the outcome plus the retry count back. Nothing outside this module
/// tests attempt exhaustion, and nothing in `orv-join` sleeps a backoff
/// itself (`orv-lint` L007 keeps it so).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RecoveryPolicy {
    /// Total attempts per operation (1 = no retry).
    pub max_attempts: u32,
    /// First backoff sleep, milliseconds; doubles per retry.
    pub base_backoff_ms: u64,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            max_attempts: 4,
            base_backoff_ms: 2,
        }
    }
}

impl RecoveryPolicy {
    /// Backoff before retry number `retry` (0-based), capped at 250 ms.
    pub fn backoff(&self, retry: u32) -> Duration {
        let ms = self.base_backoff_ms.saturating_mul(1u64 << retry.min(16));
        Duration::from_millis(ms.min(250))
    }

    /// True once `retries` has used up the attempt budget (attempt count
    /// is `retries + 1`; a policy always grants at least one attempt).
    fn attempts_exhausted(&self, retries: u64) -> bool {
        retries + 1 >= self.max_attempts.max(1) as u64
    }

    /// Run `op` under this policy, observing a [`CancelToken`]. Returns
    /// the final result plus the number of retries performed (0 when the
    /// first attempt succeeds). The loop ends at the attempt cap — with
    /// `op`'s last error, unchanged — or when the token fires: it is
    /// checked before every attempt, backoff sleeps wake within one slice
    /// of a cancel and stop at the token's deadline, and a cancellation
    /// error from `op` itself is returned immediately — retrying cannot
    /// un-cancel a query. The policy keeps no clock of its own: a time
    /// limit is the token's.
    pub fn run_cancellable<T>(
        &self,
        cancel: &CancelToken,
        mut op: impl FnMut() -> Result<T>,
    ) -> (Result<T>, u64) {
        let mut retries: u64 = 0;
        loop {
            if let Err(c) = cancel.check() {
                return (Err(c), retries);
            }
            match op() {
                Ok(v) => return (Ok(v), retries),
                Err(e) if e.is_cancellation() => return (Err(e), retries),
                Err(e) if self.attempts_exhausted(retries) => return (Err(e), retries),
                Err(_) => {
                    if let Err(c) = cancel.sleep(self.backoff(retries as u32)) {
                        return (Err(c), retries);
                    }
                    retries += 1;
                }
            }
        }
    }
}

/// Install (once, process-wide) a panic hook that swallows the default
/// report for *injected* worker panics — they are part of the test plan,
/// not bugs — while leaving every other panic's output untouched.
pub fn silence_injected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .map(|s| s.contains(INJECTED_PANIC_MARKER))
                .unwrap_or(false);
            if !injected {
                prev(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    fn injector(plan: FaultPlan) -> Arc<FaultInjector> {
        FaultInjector::new(plan, EventLog::disabled())
    }

    // The golden test's two adapters: how a build spells "an injector
    // logging into `events`" and "the eight per-kind counts". They are the
    // only lines that may differ between builds the test pins; the test
    // body below stays byte-for-byte the same.
    fn golden_injector(plan: FaultPlan, events: EventLog) -> Arc<FaultInjector> {
        FaultInjector::new(plan, events)
    }

    fn golden_counts(s: &FaultStats) -> [u64; 8] {
        Fault::all().map(|k| s[k])
    }

    /// The exact cross-kind draw stream: all eight probability-driven kinds
    /// through the six public site methods, 3 streams x 16 calls at one
    /// seed. The frame cap (1) runs dry first and refuses frame draws that
    /// fire; the global budget (10) then refuses every capped kind still
    /// under its cap (send drops, scratch errors, chunk corruptions), while
    /// delays, which never count against a budget, keep firing. Any change
    /// to a salt, a shared counter, the draw order within a site, the
    /// cap/budget rule or the corruption offset hash moves this list.
    #[test]
    fn golden_draw_stream_is_pinned() {
        let plan = FaultPlan::from_json_value(
            &JsonValue::parse(
                r#"{"seed": 2024, "worker_panics": [], "max_faults": 10,
                    "read_error_prob": 0.3, "max_read_errors": 3,
                    "read_delay_prob": 0.2, "read_delay_ms": 0,
                    "send_drop_prob": 0.3, "max_send_drops": 3,
                    "send_delay_prob": 0.25, "send_delay_ms": 1,
                    "scratch_error_prob": 0.3, "max_scratch_errors": 2,
                    "chunk_corrupt_prob": 0.3, "max_chunk_corruptions": 2,
                    "frame_corrupt_prob": 0.3, "max_frame_corruptions": 1,
                    "scratch_corrupt_prob": 0.3, "max_scratch_corruptions": 2}"#,
            )
            .unwrap(),
        )
        .unwrap();
        let events = EventLog::enabled();
        let inj = golden_injector(plan, events.clone());
        let none = CancelToken::none();
        for _ in 0..16 {
            for stream in 0..3u64 {
                let _ = inj.before_chunk_read(stream, &none);
                let _ = inj.send_verdict(stream);
                let _ = inj.before_scratch_write(stream);
                let mut buf = [0u8; 16];
                inj.corrupt_chunk_page(stream, &mut buf);
                inj.corrupt_frame(stream, &mut buf);
                inj.corrupt_scratch_read(stream, &mut buf);
            }
        }
        let logged = events.events_of_kind(names::FAULT_INJECTED);
        let got: Vec<(&str, &str, u64, u64, Option<u64>)> = logged
            .iter()
            .map(|e| {
                let f = &e.fields;
                (
                    f["kind"].as_str().unwrap(),
                    f["site"].as_str().unwrap(),
                    f["stream"].as_u64().unwrap(),
                    f["draw"].as_u64().unwrap(),
                    f.get("offset").and_then(|o| o.as_u64()),
                )
            })
            .collect();
        let want = [
            ("frame_corrupt", "frame", 0, 0, Some(13)),
            ("read_error", "chunk_read", 1, 1, None),
            ("send_drop", "send", 1, 0, None),
            ("scratch_error", "scratch_write", 2, 0, None),
            ("scratch_corrupt", "scratch_read", 2, 0, Some(6)),
            ("read_delay", "chunk_read", 1, 2, None),
            ("read_error", "chunk_read", 2, 3, None),
            ("chunk_corrupt", "chunk_page", 2, 1, Some(14)),
            ("read_error", "chunk_read", 0, 5, None),
            ("scratch_corrupt", "scratch_read", 0, 2, Some(12)),
            ("send_drop", "send", 1, 3, None),
            ("read_delay", "chunk_read", 0, 6, None),
            ("read_delay", "chunk_read", 1, 6, None),
            ("read_delay", "chunk_read", 2, 6, None),
            ("send_delay", "send", 0, 9, None),
            ("send_delay", "send", 1, 7, None),
            ("send_delay", "send", 2, 9, None),
            ("send_delay", "send", 0, 11, None),
            ("send_delay", "send", 1, 9, None),
            ("send_delay", "send", 2, 13, None),
            ("send_delay", "send", 0, 17, None),
            ("read_delay", "chunk_read", 1, 16, None),
            ("send_delay", "send", 1, 15, None),
            ("read_delay", "chunk_read", 0, 18, None),
            ("send_delay", "send", 0, 19, None),
            ("read_delay", "chunk_read", 1, 18, None),
            ("send_delay", "send", 0, 21, None),
            ("send_delay", "send", 1, 21, None),
            ("read_delay", "chunk_read", 1, 24, None),
            ("send_delay", "send", 2, 25, None),
            ("read_delay", "chunk_read", 2, 26, None),
            ("read_delay", "chunk_read", 0, 30, None),
            ("send_delay", "send", 0, 31, None),
        ];
        assert_eq!(got, want);
        // read errors, read delays, send drops, send delays, scratch
        // errors, chunk / frame / scratch corruptions.
        assert_eq!(golden_counts(&inj.stats()), [3, 10, 2, 13, 1, 1, 1, 2]);
    }

    #[test]
    fn draws_are_deterministic_per_seed() {
        let a = FaultPlan {
            seed: 42,
            max_faults: 100,
            ..FaultPlan::none()
        }
        .with(Fault::ReadError, 0.5, 100);
        let i1 = injector(a.clone());
        let i2 = injector(a);
        let s1: Vec<bool> = (0..64)
            .map(|_| i1.before_chunk_read(0, &CancelToken::none()).is_err())
            .collect();
        let s2: Vec<bool> = (0..64)
            .map(|_| i2.before_chunk_read(0, &CancelToken::none()).is_err())
            .collect();
        assert_eq!(s1, s2);
        assert!(s1.iter().any(|&b| b), "p=0.5 over 64 draws must fire");
        assert!(!s1.iter().all(|&b| b), "p=0.5 over 64 draws must also pass");
    }

    #[test]
    fn per_stream_draws_are_schedule_independent() {
        // The replay-stability property: the outcomes one stream sees are
        // a pure function of the seed, no matter how many draws *other*
        // streams interleave — i.e. scheduling variation across workers
        // cannot move faults between actors.
        let mk = || {
            injector(
                FaultPlan {
                    seed: 42,
                    max_faults: 1_000,
                    ..FaultPlan::none()
                }
                .with(Fault::ReadError, 0.5, 1_000),
            )
        };
        let quiet = mk();
        let alone: Vec<bool> = (0..32)
            .map(|_| quiet.before_chunk_read(7, &CancelToken::none()).is_err())
            .collect();
        let noisy = mk();
        let mut interleaved = Vec::new();
        for i in 0..32 {
            // Noise on other streams between every stream-7 draw.
            let _ = noisy.before_chunk_read(1, &CancelToken::none());
            if i % 3 == 0 {
                let _ = noisy.before_chunk_read(3, &CancelToken::none());
            }
            interleaved.push(noisy.before_chunk_read(7, &CancelToken::none()).is_err());
        }
        assert_eq!(alone, interleaved);
        // And distinct streams see distinct sequences.
        let other = mk();
        let stream1: Vec<bool> = (0..32)
            .map(|_| other.before_chunk_read(1, &CancelToken::none()).is_err())
            .collect();
        assert_ne!(alone, stream1);
    }

    #[test]
    fn different_seeds_differ() {
        let mk = |seed| {
            FaultPlan {
                seed,
                max_faults: 100,
                ..FaultPlan::none()
            }
            .with(Fault::ReadError, 0.5, 100)
        };
        let i1 = injector(mk(1));
        let i2 = injector(mk(2));
        let s1: Vec<bool> = (0..64)
            .map(|_| i1.before_chunk_read(0, &CancelToken::none()).is_err())
            .collect();
        let s2: Vec<bool> = (0..64)
            .map(|_| i2.before_chunk_read(0, &CancelToken::none()).is_err())
            .collect();
        assert_ne!(s1, s2);
    }

    #[test]
    fn budgets_bound_total_faults() {
        let plan = FaultPlan {
            seed: 7,
            max_faults: 3,
            ..FaultPlan::none()
        }
        .with(Fault::ReadError, 1.0, 100)
        .with(Fault::SendDrop, 1.0, 100);
        let inj = injector(plan);
        let mut fired = 0;
        for _ in 0..10 {
            fired += inj.before_chunk_read(0, &CancelToken::none()).is_err() as u32;
            fired += (inj.send_verdict(0) == SendVerdict::Drop) as u32;
        }
        assert_eq!(fired, 3, "global budget caps faults");
        assert_eq!(
            inj.stats()[Fault::ReadError] + inj.stats()[Fault::SendDrop],
            3
        );
    }

    #[test]
    fn per_kind_caps_apply() {
        let plan = FaultPlan {
            seed: 9,
            max_faults: 100,
            ..FaultPlan::none()
        }
        .with(Fault::ReadError, 1.0, 2)
        .with(Fault::ScratchError, 1.0, 1);
        let inj = injector(plan);
        let reads = (0..10)
            .filter(|_| inj.before_chunk_read(0, &CancelToken::none()).is_err())
            .count();
        let scratches = (0..10)
            .filter(|_| inj.before_scratch_write(0).is_err())
            .count();
        assert_eq!(reads, 2);
        assert_eq!(scratches, 1);
    }

    #[test]
    fn disabled_injector_never_fires() {
        let inj = FaultInjector::disabled();
        for w in 0..4 {
            inj.worker_checkpoint(w);
            assert!(inj
                .before_chunk_read(w as u64, &CancelToken::none())
                .is_ok());
            assert!(inj.before_scratch_write(w as u64).is_ok());
            assert_eq!(inj.send_verdict(w as u64), SendVerdict::Deliver);
        }
        assert_eq!(inj.stats(), FaultStats::default());
    }

    #[test]
    fn worker_panic_fires_once_after_ops() {
        silence_injected_panics();
        let plan = FaultPlan {
            seed: 3,
            worker_panics: vec![WorkerPanicSpec {
                worker: 1,
                after_ops: 2,
            }],
            max_faults: 5,
            ..FaultPlan::none()
        };
        let inj = injector(plan);
        // Worker 0 never panics.
        for _ in 0..5 {
            inj.worker_checkpoint(0);
        }
        // Worker 1 survives 2 checkpoints, dies on the 3rd, then stays up.
        inj.worker_checkpoint(1);
        inj.worker_checkpoint(1);
        let r = std::panic::catch_unwind(|| inj.worker_checkpoint(1));
        assert!(r.is_err(), "third checkpoint must panic");
        inj.worker_checkpoint(1); // one-shot: no second panic
        assert_eq!(inj.stats().worker_panics, 1);
    }

    #[test]
    fn shard_death_fires_after_subqueries_and_is_permanent() {
        let plan = FaultPlan {
            seed: 11,
            shard_deaths: vec![ShardDeathSpec {
                shard: 1,
                after_subqueries: 2,
            }],
            max_faults: 5,
            ..FaultPlan::none()
        };
        let inj = injector(plan);
        let c = CancelToken::none();
        // Shard 0 is unaffected forever.
        for _ in 0..6 {
            assert!(inj.shard_checkpoint(0, &c).is_ok());
        }
        // Shard 1 serves two sub-queries, then dies and stays dead.
        assert!(inj.shard_checkpoint(1, &c).is_ok());
        assert!(inj.shard_checkpoint(1, &c).is_ok());
        let err = inj.shard_checkpoint(1, &c).unwrap_err();
        assert!(err.to_string().contains("shard 1 is down"), "{err}");
        for _ in 0..4 {
            assert!(inj.shard_checkpoint(1, &c).is_err());
        }
        // Permanence is one fault, not many: exactly one budget unit.
        assert_eq!(inj.stats().shard_deaths, 1);
        assert_eq!(inj.ledger.lock().budget, 4);
    }

    #[test]
    fn shard_death_respects_global_budget() {
        let plan = FaultPlan {
            seed: 11,
            shard_deaths: vec![ShardDeathSpec {
                shard: 0,
                after_subqueries: 0,
            }],
            max_faults: 0,
            ..FaultPlan::none()
        };
        let inj = injector(plan);
        let c = CancelToken::none();
        for _ in 0..4 {
            assert!(inj.shard_checkpoint(0, &c).is_ok());
        }
        assert_eq!(inj.stats().shard_deaths, 0);
    }

    #[test]
    fn a_death_the_budget_refuses_never_answers_down() {
        // The refusal and the "is down" check read one ledger under one
        // lock, so no concurrent call can see a death the budget refused.
        let plan = FaultPlan {
            seed: 11,
            shard_deaths: vec![ShardDeathSpec {
                shard: 0,
                after_subqueries: 0,
            }],
            max_faults: 0,
            ..FaultPlan::none()
        };
        let inj = injector(plan);
        let errors: usize = std::thread::scope(|s| {
            let callers: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        let c = CancelToken::none();
                        (0..200_000)
                            .filter(|_| inj.shard_checkpoint(0, &c).is_err())
                            .count()
                    })
                })
                .collect();
            callers.into_iter().map(|h| h.join().unwrap()).sum()
        });
        assert_eq!(errors, 0);
        assert_eq!(inj.stats().shard_deaths, 0);
    }

    #[test]
    fn shard_slow_is_one_shot_and_cancellable() {
        // A one-shot straggler is a storm of length one.
        let slow = |shard, delay_ms| ShardSlowStormSpec {
            shard,
            after_subqueries: 1,
            delay_ms,
            storm_len: 1,
        };
        let plan = FaultPlan {
            seed: 7,
            shard_slow_storms: vec![slow(2, 1)],
            ..FaultPlan::none()
        };
        let inj = injector(plan);
        let c = CancelToken::none();
        assert!(inj.shard_checkpoint(2, &c).is_ok());
        assert!(inj.shard_checkpoint(2, &c).is_ok()); // sleeps 1ms
        assert!(inj.shard_checkpoint(2, &c).is_ok());
        assert_eq!(inj.stats().shard_slow_storm_delays, 1);

        // A cancelled query must not pay the injected latency.
        let plan = FaultPlan {
            seed: 7,
            shard_slow_storms: vec![ShardSlowStormSpec {
                after_subqueries: 0,
                ..slow(0, 60_000)
            }],
            ..FaultPlan::none()
        };
        let inj = injector(plan);
        let cancelled = CancelToken::new();
        cancelled.cancel();
        let err = inj.shard_checkpoint(0, &cancelled).unwrap_err();
        assert!(err.is_cancellation(), "{err}");
    }

    #[test]
    fn shard_slow_storm_delays_a_window_then_ends() {
        let plan = FaultPlan {
            seed: 9,
            shard_slow_storms: vec![ShardSlowStormSpec {
                shard: 1,
                after_subqueries: 1,
                delay_ms: 1,
                storm_len: 3,
            }],
            ..FaultPlan::none()
        };
        let inj = injector(plan);
        let c = CancelToken::none();
        // Other shards are never slowed.
        for _ in 0..8 {
            assert!(inj.shard_checkpoint(0, &c).is_ok());
        }
        // Shard 1: one clean sub-query, then exactly storm_len slowed
        // ones, then the storm is over.
        for _ in 0..8 {
            assert!(inj.shard_checkpoint(1, &c).is_ok());
        }
        assert_eq!(inj.stats().shard_slow_storm_delays, 3);
    }

    #[test]
    fn load_storm_plan_is_seeded_and_round_trips() {
        let plan = FaultPlan::load_storm(42, 8, 4);
        assert_eq!(plan.client_floods.len(), 1);
        assert_eq!(plan.client_floods[0].clients, 8, "flood doubles load");
        assert_eq!(plan.shard_slow_storms.len(), 1);
        assert!(plan.shard_slow_storms[0].shard < 4);
        assert!(plan.shard_slow_storms[0].storm_len >= 6);
        assert_eq!(plan.max_faults, 0, "overload plans inject no errors");
        // Same seed, same storm; different seed, different draw stream.
        assert_eq!(FaultPlan::load_storm(42, 8, 4), plan);
        assert_ne!(FaultPlan::load_storm(43, 8, 4), plan);
        // Round-trips through the fault_plan event payload.
        let back = FaultPlan::from_json_value(&plan.to_json_value()).unwrap();
        assert_eq!(back, plan);
        // Plans logged before the overload kinds still parse as empty.
        let mut v = plan.to_json_value();
        if let JsonValue::Object(map) = &mut v {
            map.retain(|k, _| k.as_str() != "client_floods" && k.as_str() != "shard_slow_storms");
        }
        let back = FaultPlan::from_json_value(&v).unwrap();
        assert!(back.client_floods.is_empty() && back.shard_slow_storms.is_empty());
    }

    #[test]
    fn recovery_retries_then_succeeds() {
        let policy = RecoveryPolicy {
            max_attempts: 5,
            base_backoff_ms: 1,
        };
        let mut failures_left = 3;
        let (out, retries) = policy.run_cancellable(&CancelToken::none(), || {
            if failures_left > 0 {
                failures_left -= 1;
                Err(Error::Cluster("transient".into()))
            } else {
                Ok(42)
            }
        });
        assert_eq!(out.unwrap(), 42);
        assert_eq!(retries, 3);
    }

    #[test]
    fn recovery_gives_up_after_max_attempts() {
        let policy = RecoveryPolicy {
            max_attempts: 3,
            base_backoff_ms: 1,
        };
        let mut calls = 0;
        let (out, retries) = policy.run_cancellable(&CancelToken::none(), || -> Result<()> {
            calls += 1;
            Err(Error::Cluster("always".into()))
        });
        assert!(out.is_err());
        assert_eq!(calls, 3);
        assert_eq!(retries, 2);
    }

    /// A retry loop ends at its attempt cap or when the query's token
    /// fires; past the token's deadline it stops with `DeadlineExceeded`.
    #[test]
    fn recovery_respects_deadline() {
        let policy = RecoveryPolicy {
            max_attempts: 1_000,
            base_backoff_ms: 5,
        };
        assert!(!policy.attempts_exhausted(0));
        assert!(policy.attempts_exhausted(999));
        let token = CancelToken::with_deadline(Duration::from_millis(40));
        let start = Instant::now();
        let mut calls = 0;
        let (out, _) = policy.run_cancellable(&token, || -> Result<()> {
            calls += 1;
            Err(Error::Cluster("slow".into()))
        });
        assert!(matches!(out, Err(Error::DeadlineExceeded)), "{out:?}");
        assert!(start.elapsed() >= Duration::from_millis(40));
        assert!(start.elapsed() < Duration::from_secs(2));
        assert!(calls > 1 && calls < 1_000, "{calls} attempts");
    }

    #[test]
    fn from_seed_is_reproducible_and_bounded() {
        assert_eq!(FaultPlan::from_seed(11), FaultPlan::from_seed(11));
        assert_ne!(FaultPlan::from_seed(11), FaultPlan::from_seed(12));
        let p = FaultPlan::from_seed(11);
        assert!(
            p.max_faults > 0 && p.max_faults < 100,
            "transience requires a finite budget"
        );
    }

    #[test]
    fn fault_plan_json_round_trips() {
        for seed in [0, 11, 99] {
            let p = FaultPlan::from_seed(seed);
            let back = FaultPlan::from_json_value(&p.to_json_value()).unwrap();
            assert_eq!(back, p);
        }
        assert_eq!(
            FaultPlan::from_json_value(&FaultPlan::none().to_json_value()).unwrap(),
            FaultPlan::none()
        );
        // Shard kinds survive the trip, and logs from before they existed
        // (no `shard_deaths`/`shard_slow_storms` keys) still parse as empty.
        let p = FaultPlan {
            shard_deaths: vec![ShardDeathSpec {
                shard: 1,
                after_subqueries: 3,
            }],
            shard_slow_storms: vec![ShardSlowStormSpec {
                shard: 0,
                after_subqueries: 1,
                delay_ms: 40,
                storm_len: 1,
            }],
            ..FaultPlan::from_seed(5)
        };
        assert_eq!(FaultPlan::from_json_value(&p.to_json_value()).unwrap(), p);
        let mut old = FaultPlan::from_seed(5).to_json_value();
        if let JsonValue::Object(map) = &mut old {
            map.retain(|k, _| k.as_str() != "shard_deaths" && k.as_str() != "shard_slow_storms");
        }
        let back = FaultPlan::from_json_value(&old).unwrap();
        assert!(back.shard_deaths.is_empty() && back.shard_slow_storms.is_empty());
        // A log with the one-shot `shard_slows` list parses it as storms of
        // length one: the same sleep at the same sub-query.
        let mut old = p.to_json_value();
        if let JsonValue::Object(map) = &mut old {
            map.remove("shard_slow_storms");
            map.insert(
                "shard_slows".into(),
                JsonValue::Array(vec![obj([
                    ("shard", 0u64.into()),
                    ("after_subqueries", 1u64.into()),
                    ("delay_ms", 40u64.into()),
                ])]),
            );
        }
        assert_eq!(FaultPlan::from_json_value(&old).unwrap(), p);
    }

    #[test]
    fn injected_faults_are_logged_with_draw_indices() {
        let events = EventLog::enabled();
        let plan = FaultPlan {
            seed: 5,
            max_faults: 10,
            ..FaultPlan::none()
        }
        .with(Fault::ReadError, 1.0, 2)
        .with(Fault::SendDrop, 1.0, 1);
        let inj = FaultInjector::new(plan.clone(), events.clone());
        for _ in 0..4 {
            // Two interleaved streams per site.
            for stream in [0u64, 1] {
                let _ = inj.before_chunk_read(stream, &CancelToken::none());
                let _ = inj.send_verdict(stream);
            }
        }
        // The plan event pins the run.
        let plan_events = events.events_of_kind(names::FAULT_PLAN);
        assert_eq!(plan_events.len(), 1);
        let logged = FaultPlan::from_json_value(&plan_events[0].fields["plan"]).unwrap();
        assert_eq!(logged, plan);
        // One event per injected fault, every event tagged with its draw
        // stream, draw indices strictly increasing per (site, stream).
        let faults = events.events_of_kind(names::FAULT_INJECTED);
        let s = inj.stats();
        assert_eq!(
            faults.len() as u64,
            s[Fault::ReadError] + s[Fault::SendDrop]
        );
        let mut per_stream: HashMap<(String, u64), Vec<u64>> = HashMap::new();
        for e in &faults {
            let site = e.fields["site"].as_str().unwrap().to_string();
            let stream = e.fields["stream"].as_u64().unwrap();
            let draw = e.fields["draw"].as_u64().unwrap();
            per_stream.entry((site, stream)).or_default().push(draw);
        }
        let read_errors: u64 = per_stream
            .iter()
            .filter(|((site, _), _)| site == "chunk_read")
            .map(|(_, draws)| draws.len() as u64)
            .sum();
        assert_eq!(read_errors, s[Fault::ReadError]);
        for ((site, stream), draws) in &per_stream {
            assert!(
                draws.windows(2).all(|w| w[0] < w[1]),
                "draws not monotone at ({site}, {stream}): {draws:?}"
            );
        }
    }

    #[test]
    fn corruption_flips_exactly_one_byte_and_is_deterministic() {
        let plan = FaultPlan {
            seed: 21,
            max_faults: 10,
            ..FaultPlan::none()
        }
        .with(Fault::ChunkCorrupt, 1.0, 1)
        .with(Fault::FrameCorrupt, 1.0, 1)
        .with(Fault::ScratchCorrupt, 1.0, 1);
        let clean: Vec<u8> = (0..64).collect();
        let run = |plan: FaultPlan| {
            let inj = injector(plan);
            let mut page = clean.clone();
            let flip = inj.corrupt_chunk_page(0, &mut page).expect("p=1 must fire");
            (page, flip)
        };
        let (page_a, flip_a) = run(plan.clone());
        let (page_b, flip_b) = run(plan.clone());
        assert_eq!(page_a, page_b, "same seed, same damage");
        assert_eq!(flip_a, flip_b);
        let diffs: Vec<usize> = (0..clean.len())
            .filter(|&i| page_a[i] != clean[i])
            .collect();
        assert_eq!(diffs, vec![flip_a.0], "exactly one byte flipped");
        assert_ne!(flip_a.1, 0, "mask must actually flip");

        // The returned flip restores the pristine payload (retransmit).
        let inj = injector(plan);
        let mut frame = clean.clone();
        let (off, mask) = inj.corrupt_frame(0, &mut frame).unwrap();
        assert_ne!(frame, clean);
        frame[off] ^= mask;
        assert_eq!(frame, clean);

        // Caps are per kind, budget is honoured, empty payloads skipped.
        assert!(inj.corrupt_frame(0, &mut frame.clone()).is_none(), "cap 1");
        assert!(inj.corrupt_scratch_read(0, &mut []).is_none());
        let mut s = clean.clone();
        assert!(inj.corrupt_scratch_read(0, &mut s).is_some());
        let stats = inj.stats();
        assert_eq!(stats[Fault::FrameCorrupt], 1);
        assert_eq!(stats[Fault::ScratchCorrupt], 1);
        assert_eq!(stats.corruptions(), 2);
    }

    #[test]
    fn corruptions_are_logged_like_other_faults() {
        let events = EventLog::enabled();
        let plan = FaultPlan {
            seed: 5,
            max_faults: 10,
            ..FaultPlan::none()
        }
        .with(Fault::ChunkCorrupt, 1.0, 2);
        let inj = FaultInjector::new(plan, events.clone());
        let mut page = vec![1u8, 2, 3, 4];
        for _ in 0..4 {
            let _ = inj.corrupt_chunk_page(3, &mut page);
        }
        let faults = events.events_of_kind(names::FAULT_INJECTED);
        assert_eq!(faults.len(), 2, "cap bounds logged corruptions");
        for e in &faults {
            assert_eq!(e.fields["kind"].as_str(), Some("chunk_corrupt"));
            assert_eq!(e.fields["site"].as_str(), Some("chunk_page"));
            assert_eq!(e.fields["stream"].as_u64(), Some(3));
            assert!(e.fields["offset"].as_u64().unwrap() < 4);
        }
    }

    #[test]
    fn corrupting_plan_round_trips_and_old_logs_still_parse() {
        let p = FaultPlan::corrupting(33);
        assert!(
            p.prob[Fault::ChunkCorrupt] > 0.0 && p.max_faults > FaultPlan::from_seed(33).max_faults
        );
        let back = FaultPlan::from_json_value(&p.to_json_value()).unwrap();
        assert_eq!(back, p);

        // A plan serialized before the corruption kinds existed parses
        // with all corruption knobs at zero.
        let mut old = FaultPlan::from_seed(4).to_json_value();
        if let JsonValue::Object(m) = &mut old {
            for k in [
                "chunk_corrupt_prob",
                "max_chunk_corruptions",
                "frame_corrupt_prob",
                "max_frame_corruptions",
                "scratch_corrupt_prob",
                "max_scratch_corruptions",
            ] {
                m.remove(k);
            }
        }
        let parsed = FaultPlan::from_json_value(&old).unwrap();
        assert_eq!(parsed, FaultPlan::from_seed(4));
    }

    #[test]
    fn cancelled_token_stops_recovery_immediately() {
        let policy = RecoveryPolicy {
            max_attempts: 1_000,
            base_backoff_ms: 60_000,
        };
        let cancel = CancelToken::new();
        cancel.cancel();
        let start = Instant::now();
        let (out, retries) = policy.run_cancellable(&cancel, || -> Result<()> {
            Err(Error::Cluster("transient".into()))
        });
        assert!(matches!(out, Err(Error::Cancelled)));
        assert_eq!(retries, 0);
        assert!(start.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn cancellation_error_from_op_is_not_retried() {
        let policy = RecoveryPolicy {
            max_attempts: 10,
            base_backoff_ms: 1,
        };
        let mut calls = 0;
        let (out, _) = policy.run_cancellable(&CancelToken::none(), || -> Result<()> {
            calls += 1;
            Err(Error::DeadlineExceeded)
        });
        assert!(matches!(out, Err(Error::DeadlineExceeded)));
        assert_eq!(calls, 1, "cancellation must short-circuit retries");
    }

    /// The deadline a retry loop obeys is the token's: it holds before the
    /// deadline and fires after it, while the attempt cap is the policy's.
    #[test]
    fn deadline_helper_matches_policy() {
        let p = RecoveryPolicy::default();
        let token = CancelToken::with_deadline(Duration::from_millis(10));
        assert!(token.check().is_ok());
        std::thread::sleep(Duration::from_millis(15));
        assert!(matches!(token.check(), Err(Error::DeadlineExceeded)));
        assert_eq!(token.remaining(), Some(Duration::ZERO));
        assert!(!p.attempts_exhausted(0));
        assert!(p.attempts_exhausted(3));
    }

    #[test]
    fn backoff_is_exponential_and_capped() {
        let p = RecoveryPolicy {
            max_attempts: 10,
            base_backoff_ms: 2,
        };
        assert_eq!(p.backoff(0), Duration::from_millis(2));
        assert_eq!(p.backoff(1), Duration::from_millis(4));
        assert_eq!(p.backoff(2), Duration::from_millis(8));
        assert_eq!(p.backoff(30), Duration::from_millis(250), "capped");
    }
}
