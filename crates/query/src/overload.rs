//! Overload control: cost classes and the deterministic brownout state
//! machine.
//!
//! Under 2× load a blind FIFO cap fails two ways at once: cheap
//! interactive queries starve behind expensive scans that were doomed to
//! miss their deadlines anyway, and the rejection pattern is an
//! accident of arrival order rather than a policy. This module supplies
//! the two missing pieces:
//!
//! * **Cost classes** — the §5 cost models predict per-query work
//!   *before* execution; admission classifies each query [`Cheap`] or
//!   [`Expensive`] against a threshold and sheds expensive work first.
//! * **The brownout state machine** — a hysteresis machine
//!   `Normal → Brownout → Shed` driven by queue depth and the queue-wait
//!   latency signal behind the `lat/queue_wait_secs` histogram. It runs
//!   on a **logical tick clock** (one tick per admission observation, no
//!   ambient time — lint rule L006), so a seeded chaos run produces the
//!   identical transition log every time. It is plain state with no lock
//!   of its own: each [`QueryService`] keeps one in its admission ledger
//!   and mutates it under that ledger's lock; callers read it through
//!   [`QueryService::brownout_state`] and [`QueryService::brownout_log`].
//!
//! Degradation is ordered and reversible: entering `Brownout` disables
//! hedging and sheds expensive work; `Shed` additionally refuses cheap
//! work while the queue stays deep and stops failover re-issue; recovery
//! steps back one state at a time, re-enabling in reverse order. What a
//! state permits the federation router is the router's governor's to
//! say: it reads the worst state of any shard before every re-issue. No
//! two transitions can occur within one cooldown window, so the
//! machine cannot oscillate on a noisy depth signal.
//!
//! [`QueryService`]: crate::service::QueryService
//! [`QueryService::brownout_state`]: crate::service::QueryService::brownout_state
//! [`QueryService::brownout_log`]: crate::service::QueryService::brownout_log
//! [`Cheap`]: CostClass::Cheap
//! [`Expensive`]: CostClass::Expensive

use std::collections::VecDeque;

/// The admission class the predicted §5 cost maps a query into.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CostClass {
    /// Predicted to finish under the fast-lane threshold: jumps the FIFO
    /// and is the last work to be shed.
    Cheap,
    /// Everything else: first to be shed under pressure.
    Expensive,
}

impl CostClass {
    /// Stable label for counters/events.
    pub fn as_str(self) -> &'static str {
        match self {
            CostClass::Cheap => "cheap",
            CostClass::Expensive => "expensive",
        }
    }
}

/// Brownout severity, in escalation order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum BrownoutState {
    /// Full service: hedging on, all classes admitted to the cap.
    Normal,
    /// Degraded: hedging off, expensive work shed.
    Brownout,
    /// Survival: additionally sheds cheap work while the queue is deep and
    /// stops failover re-issue (partial results preferred).
    Shed,
}

impl BrownoutState {
    /// Stable label for the transition log and events.
    pub fn as_str(self) -> &'static str {
        match self {
            BrownoutState::Normal => "normal",
            BrownoutState::Brownout => "brownout",
            BrownoutState::Shed => "shed",
        }
    }

    /// Gauge encoding (0/1/2).
    pub fn severity(self) -> u64 {
        match self {
            BrownoutState::Normal => 0,
            BrownoutState::Brownout => 1,
            BrownoutState::Shed => 2,
        }
    }
}

/// Thresholds and hysteresis for overload control. All depth thresholds
/// are fractions of the service's `queue_cap`.
#[derive(Clone, Debug)]
pub struct OverloadConfig {
    /// Predicted cost (seconds) at or under which a query classifies
    /// [`CostClass::Cheap`] and takes the fast lane.
    pub fast_lane_max_secs: f64,
    /// Queue-depth fraction at which `Normal` escalates to `Brownout`.
    pub brownout_enter: f64,
    /// Queue-depth fraction at which `Brownout` escalates to `Shed`.
    pub shed_enter: f64,
    /// Queue-depth fraction at or under which the machine steps one
    /// state back toward `Normal`.
    pub recover: f64,
    /// Minimum logical ticks between any two transitions — the
    /// hysteresis window that forbids oscillation.
    pub cooldown_ticks: u64,
}

/// A queue-wait observation at or above this (seconds) arms the latency
/// alarm: the next tick escalates even if depth alone would not. This is
/// the `lat/queue_wait_secs` signal feeding back into admission.
const QUEUE_WAIT_ALARM_SECS: f64 = 1.0;

/// Base `retry_after` hint on overload rejections, milliseconds; doubled
/// per severity level.
const RETRY_AFTER_MS: u64 = 25;

impl Default for OverloadConfig {
    fn default() -> Self {
        OverloadConfig {
            fast_lane_max_secs: 0.05,
            brownout_enter: 0.5,
            shed_enter: 0.875,
            recover: 0.25,
            cooldown_ticks: 16,
        }
    }
}

impl OverloadConfig {
    /// Validate threshold ordering: recover < brownout_enter ≤
    /// shed_enter ≤ 1, so de-escalation and escalation can never be
    /// simultaneously true at one depth.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.recover >= 0.0 && self.recover < self.brownout_enter) {
            return Err(format!(
                "overload recover ({}) must be in [0, brownout_enter)",
                self.recover
            ));
        }
        if !(self.brownout_enter <= self.shed_enter && self.shed_enter <= 1.0) {
            return Err(format!(
                "overload thresholds must order brownout_enter ({}) <= shed_enter ({}) <= 1",
                self.brownout_enter, self.shed_enter
            ));
        }
        if !self.fast_lane_max_secs.is_finite() || self.fast_lane_max_secs < 0.0 {
            return Err("fast_lane_max_secs must be finite and >= 0".into());
        }
        Ok(())
    }

    /// Classify a predicted cost.
    pub fn classify(&self, predicted_secs: f64) -> CostClass {
        if predicted_secs <= self.fast_lane_max_secs {
            CostClass::Cheap
        } else {
            CostClass::Expensive
        }
    }
}

/// One edge of the brownout state machine, as logged.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BrownoutTransition {
    /// Logical tick (observation count) at which the edge fired.
    pub tick: u64,
    /// State left.
    pub from: BrownoutState,
    /// State entered.
    pub to: BrownoutState,
    /// Queue depth observed at the tick.
    pub depth: usize,
}

impl BrownoutTransition {
    /// One stable log line (`tick:from->to@depth`) — the unit the
    /// replay-identical acceptance test compares.
    pub fn render(&self) -> String {
        format!(
            "{}:{}->{}@{}",
            self.tick,
            self.from.as_str(),
            self.to.as_str(),
            self.depth
        )
    }
}

/// The most edges a service's brownout log keeps: the most recent ones.
/// Older edges are counted in [`BrownoutLog::dropped`]; the tick keeps
/// counting.
const BROWNOUT_LOG_CAP: usize = 1024;

/// A service's brownout history, as one snapshot.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BrownoutLog {
    /// Logical ticks elapsed (admission observations so far).
    pub tick: u64,
    /// The most recent edges, oldest first — at most 1 024.
    pub transitions: Vec<BrownoutTransition>,
    /// Edges older than `transitions` that the log no longer holds.
    pub dropped: u64,
}

impl BrownoutLog {
    /// One line per kept edge — what the acceptance test asserts
    /// replays identically from the seed.
    pub fn render(&self) -> String {
        let lines: Vec<String> = self.transitions.iter().map(|t| t.render()).collect();
        lines.join("\n")
    }
}

/// The deterministic hysteresis state machine gating admission and
/// hedging: plain state, mutated only under its service's ledger lock.
///
/// The clock is logical: [`observe`](Self::observe) advances one tick
/// per admission decision. Determinism contract: given the same
/// sequence of `(depth, alarm)` observations, the machine produces the
/// identical transition log — there is no wall-clock or RNG input.
pub(crate) struct Brownout {
    cfg: OverloadConfig,
    queue_cap: usize,
    state: BrownoutState,
    /// Logical clock: observations so far.
    tick: u64,
    /// Latched queue-wait alarm, consumed by the next observation.
    wait_alarm: bool,
    /// The most recent edges; its last is the last transition (the
    /// cooldown counts from it).
    log: VecDeque<BrownoutTransition>,
    dropped: u64,
}

impl Brownout {
    /// The machine for a queue of `queue_cap` slots, in `Normal`.
    pub(crate) fn new(cfg: OverloadConfig, queue_cap: usize) -> Self {
        Brownout {
            cfg,
            queue_cap,
            state: BrownoutState::Normal,
            tick: 0,
            wait_alarm: false,
            log: VecDeque::new(),
            dropped: 0,
        }
    }

    pub(crate) fn state(&self) -> BrownoutState {
        self.state
    }

    /// Feed one queue-wait measurement (seconds) — the same values the
    /// `lat/queue_wait_secs` histogram records. At or above the alarm
    /// threshold it arms a one-shot escalation signal for the next tick.
    pub(crate) fn note_queue_wait(&mut self, secs: f64) {
        if secs >= QUEUE_WAIT_ALARM_SECS {
            self.wait_alarm = true;
        }
    }

    /// Advance one logical tick with the current queue depth; returns
    /// the transition if one fired.
    ///
    /// Transitions move one severity step at a time and never fire
    /// within `cooldown_ticks` of the previous one.
    pub(crate) fn observe(&mut self, depth: usize) -> Option<BrownoutTransition> {
        self.tick += 1;
        let cur = self.state;
        let cap = self.queue_cap as f64;
        let d = depth as f64;
        let alarm = std::mem::take(&mut self.wait_alarm);
        let next = match cur {
            BrownoutState::Normal if d >= self.cfg.brownout_enter * cap || alarm => {
                BrownoutState::Brownout
            }
            BrownoutState::Brownout if d >= self.cfg.shed_enter * cap => BrownoutState::Shed,
            BrownoutState::Brownout if d <= self.cfg.recover * cap && !alarm => {
                BrownoutState::Normal
            }
            BrownoutState::Shed if d <= self.cfg.recover * cap && !alarm => BrownoutState::Brownout,
            _ => cur,
        };
        let cooled = self
            .log
            .back()
            .is_none_or(|last| self.tick - last.tick >= self.cfg.cooldown_ticks);
        if next == cur || !cooled {
            return None;
        }
        self.state = next;
        let transition = BrownoutTransition {
            tick: self.tick,
            from: cur,
            to: next,
            depth,
        };
        if self.log.len() == BROWNOUT_LOG_CAP {
            self.log.pop_front();
            self.dropped += 1;
        }
        self.log.push_back(transition);
        Some(transition)
    }

    /// Whether admission should accept a query of `class` at `depth`,
    /// severity aside from the hard queue cap (checked separately).
    pub(crate) fn allows(&self, class: CostClass, depth: usize) -> bool {
        let cap = self.queue_cap as f64;
        match (self.state, class) {
            (BrownoutState::Normal, _) => true,
            (BrownoutState::Brownout, CostClass::Cheap) => true,
            (BrownoutState::Brownout, CostClass::Expensive) => false,
            // Survival mode: cheap work still lands while the queue has
            // drained below the brownout line; expensive never does.
            (BrownoutState::Shed, CostClass::Cheap) => {
                (depth as f64) < self.cfg.brownout_enter * cap
            }
            (BrownoutState::Shed, CostClass::Expensive) => false,
        }
    }

    /// The `retry_after` hint for a rejection at the current severity:
    /// the base hint doubled per severity level.
    pub(crate) fn retry_after_ms(&self) -> u64 {
        RETRY_AFTER_MS << self.state.severity().min(8)
    }

    /// The tick, the kept edges and the dropped count, as one snapshot.
    pub(crate) fn log(&self) -> BrownoutLog {
        BrownoutLog {
            tick: self.tick,
            transitions: self.log.iter().copied().collect(),
            dropped: self.dropped,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> OverloadConfig {
        OverloadConfig {
            cooldown_ticks: 4,
            ..OverloadConfig::default()
        }
    }

    #[test]
    fn config_validates_threshold_ordering() {
        assert!(OverloadConfig::default().validate().is_ok());
        let bad = OverloadConfig {
            recover: 0.6,
            ..OverloadConfig::default()
        };
        assert!(bad.validate().is_err());
        let bad = OverloadConfig {
            brownout_enter: 0.9,
            shed_enter: 0.5,
            ..OverloadConfig::default()
        };
        assert!(bad.validate().is_err());
        let bad = OverloadConfig {
            fast_lane_max_secs: f64::NAN,
            ..OverloadConfig::default()
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn classification_uses_the_fast_lane_threshold() {
        let c = OverloadConfig::default();
        assert_eq!(c.classify(0.0), CostClass::Cheap);
        assert_eq!(c.classify(0.05), CostClass::Cheap);
        assert_eq!(c.classify(0.051), CostClass::Expensive);
        assert_eq!(CostClass::Cheap.as_str(), "cheap");
    }

    #[test]
    fn escalates_one_step_at_a_time_in_order() {
        let mut ctl = Brownout::new(cfg(), 8);
        assert_eq!(ctl.state(), BrownoutState::Normal);
        // Depth 8/8 exceeds both thresholds, but the first edge still
        // only reaches Brownout.
        let t = ctl.observe(8);
        assert_eq!(ctl.state(), BrownoutState::Brownout);
        assert_eq!(t.unwrap().from, BrownoutState::Normal);
        // Cooldown: no second edge until cooldown_ticks have elapsed
        // since the first (ticks 2-4 are blocked; tick 5 may fire).
        for _ in 0..3 {
            assert!(ctl.observe(8).is_none());
            assert_eq!(ctl.state(), BrownoutState::Brownout);
        }
        ctl.observe(8);
        assert_eq!(ctl.state(), BrownoutState::Shed);
    }

    #[test]
    fn hysteresis_never_oscillates_within_one_cooldown_window() {
        // Property: for an adversarial depth sequence flapping across
        // both thresholds every tick, consecutive transitions are always
        // >= cooldown_ticks apart.
        let cool = 5u64;
        let mut ctl = Brownout::new(
            OverloadConfig {
                cooldown_ticks: cool,
                ..OverloadConfig::default()
            },
            16,
        );
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for _ in 0..500 {
            // splitmix-ish deterministic "noise" across the full range.
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ctl.observe((x >> 60) as usize + ((x >> 32) as usize % 17));
        }
        let log = ctl.log().transitions;
        assert!(!log.is_empty(), "adversarial input must transition");
        for w in log.windows(2) {
            assert!(
                w[1].tick - w[0].tick >= cool,
                "transitions at ticks {} and {} violate cooldown {}",
                w[0].tick,
                w[1].tick,
                cool
            );
            // Edges are always one severity step.
            assert_eq!(
                (w[0].to.severity() as i64 - w[0].from.severity() as i64).abs(),
                1
            );
        }
    }

    #[test]
    fn recovery_steps_down_in_order() {
        let mut ctl = Brownout::new(cfg(), 8);
        ctl.observe(8);
        for _ in 0..4 {
            ctl.observe(8);
        }
        assert_eq!(ctl.state(), BrownoutState::Shed);
        // Drain the queue: recovery passes back through Brownout.
        for _ in 0..4 {
            ctl.observe(0);
        }
        assert_eq!(
            ctl.state(),
            BrownoutState::Brownout,
            "hedging re-enables last"
        );
        for _ in 0..4 {
            ctl.observe(0);
        }
        assert_eq!(ctl.state(), BrownoutState::Normal);
        let log = ctl.log().transitions;
        let edges: Vec<_> = log.iter().map(|t| (t.from, t.to)).collect();
        assert_eq!(
            edges,
            vec![
                (BrownoutState::Normal, BrownoutState::Brownout),
                (BrownoutState::Brownout, BrownoutState::Shed),
                (BrownoutState::Shed, BrownoutState::Brownout),
                (BrownoutState::Brownout, BrownoutState::Normal),
            ]
        );
        assert!(ctl.log().render().contains("->shed@"));
    }

    #[test]
    fn same_observation_sequence_replays_the_same_log() {
        let depths: Vec<usize> = (0..200)
            .map(|i: usize| (i.wrapping_mul(37) % 11) + if i.is_multiple_of(3) { 6 } else { 0 })
            .collect();
        let run = |seq: &[usize]| {
            let mut ctl = Brownout::new(cfg(), 8);
            for &d in seq {
                ctl.observe(d);
            }
            ctl.log()
        };
        assert_eq!(run(&depths), run(&depths));
    }

    #[test]
    fn shedding_policy_rejects_expensive_first() {
        let mut ctl = Brownout::new(cfg(), 8);
        assert!(ctl.allows(CostClass::Expensive, 7));
        ctl.observe(8); // → Brownout
        assert!(!ctl.allows(CostClass::Expensive, 7));
        assert!(ctl.allows(CostClass::Cheap, 7));
        for _ in 0..4 {
            ctl.observe(8); // → Shed after cooldown
        }
        assert_eq!(ctl.state(), BrownoutState::Shed);
        assert!(!ctl.allows(CostClass::Expensive, 0));
        assert!(ctl.allows(CostClass::Cheap, 1), "cheap lands once drained");
        assert!(!ctl.allows(CostClass::Cheap, 7));
        // retry_after scales with severity.
        assert_eq!(
            ctl.retry_after_ms(),
            RETRY_AFTER_MS * 4,
            "shed doubles the hint twice"
        );
    }

    #[test]
    fn queue_wait_alarm_escalates_without_depth() {
        let mut ctl = Brownout::new(cfg(), 8);
        ctl.note_queue_wait(0.5); // below alarm: no-op
        ctl.observe(0);
        assert_eq!(ctl.state(), BrownoutState::Normal);
        ctl.note_queue_wait(2.0); // armed
        let t = ctl.observe(0);
        assert_eq!(ctl.state(), BrownoutState::Brownout);
        assert_eq!(t.unwrap().depth, 0);
        // The alarm is one-shot: with no new arm and an empty queue the
        // machine recovers after cooldown.
        for _ in 0..4 {
            ctl.observe(0);
        }
        assert_eq!(ctl.state(), BrownoutState::Normal);
    }

    #[test]
    fn the_log_keeps_the_most_recent_edges_and_counts_the_rest() {
        // Cooldown 1 and a depth flapping between full and empty: every
        // tick is an edge.
        let mut ctl = Brownout::new(
            OverloadConfig {
                cooldown_ticks: 1,
                ..OverloadConfig::default()
            },
            8,
        );
        let extra = 37;
        let mut last = None;
        let mut edges = 0u64;
        while edges < (BROWNOUT_LOG_CAP + extra) as u64 {
            let depth = if ctl.state() == BrownoutState::Normal {
                8
            } else {
                0
            };
            if let Some(t) = ctl.observe(depth) {
                edges += 1;
                last = Some(t);
            }
        }
        let log = ctl.log();
        assert_eq!(log.transitions.len(), BROWNOUT_LOG_CAP);
        assert_eq!(log.dropped, extra as u64);
        assert_eq!(log.transitions.last().copied(), last);
        assert_eq!(log.tick, last.unwrap().tick, "the tick keeps counting");
        // The kept edges are the newest, oldest first.
        assert!(log.transitions.windows(2).all(|w| w[0].tick < w[1].tick));
        assert_eq!(log.transitions[0].tick, extra as u64 + 1);
    }
}
