//! Overload control: cost classes and the deterministic brownout
//! controller.
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
//! * **[`BrownoutController`]** — a hysteresis state machine
//!   `Normal → Brownout → Shed` driven by queue depth and the queue-wait
//!   latency signal behind the `lat/queue_wait_secs` histogram. It runs
//!   on a **logical tick clock** (one tick per admission observation, no
//!   ambient time — lint rule L006), so a seeded chaos run produces the
//!   identical transition log every time.
//!
//! Degradation is ordered and reversible: entering `Brownout` disables
//! hedging and sheds expensive work; `Shed` additionally refuses cheap
//! work while the queue stays deep and stops failover re-issue; recovery
//! steps back one state at a time, re-enabling in reverse order. What a
//! state permits the federation router is the router's governor's to
//! say: it reads the worst state of any shard before every re-issue. No
//! two transitions can occur within one cooldown window, so the
//! controller cannot oscillate on a noisy depth signal.
//!
//! [`Cheap`]: CostClass::Cheap
//! [`Expensive`]: CostClass::Expensive

use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

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

    fn from_severity(v: u64) -> Self {
        match v {
            0 => BrownoutState::Normal,
            1 => BrownoutState::Brownout,
            _ => BrownoutState::Shed,
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
    /// Queue-depth fraction at or under which the controller steps one
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

struct ControllerState {
    /// Tick of the last transition; `None` until the first one.
    last_transition: Option<u64>,
    log: Vec<BrownoutTransition>,
}

/// The deterministic hysteresis state machine gating admission and
/// hedging. One per [`QueryService`](crate::service::QueryService).
///
/// The clock is logical: [`observe`](Self::observe) advances one tick
/// per admission decision. Determinism contract: given the same
/// sequence of `(depth, alarm)` observations, the controller produces
/// the identical transition log — there is no wall-clock or RNG input.
pub struct BrownoutController {
    cfg: OverloadConfig,
    queue_cap: usize,
    /// Current severity (0/1/2); read lock-free on hot paths.
    severity: AtomicU64,
    /// Logical clock: observations so far.
    tick: AtomicU64,
    /// Latched queue-wait alarm, consumed by the next observation.
    wait_alarm: AtomicBool,
    state: Mutex<ControllerState>,
}

impl BrownoutController {
    /// Controller for a queue of `queue_cap` slots.
    pub fn new(cfg: OverloadConfig, queue_cap: usize) -> Self {
        BrownoutController {
            cfg,
            queue_cap,
            severity: AtomicU64::new(0),
            tick: AtomicU64::new(0),
            wait_alarm: AtomicBool::new(false),
            state: Mutex::new(ControllerState {
                last_transition: None,
                log: Vec::new(),
            }),
        }
    }

    /// Current state (lock-free).
    pub fn state(&self) -> BrownoutState {
        BrownoutState::from_severity(self.severity.load(Ordering::Acquire))
    }

    /// Logical ticks elapsed (observations so far).
    pub fn tick(&self) -> u64 {
        self.tick.load(Ordering::Acquire)
    }

    /// Feed one queue-wait measurement (seconds) — the same values the
    /// `lat/queue_wait_secs` histogram records. At or above the alarm
    /// threshold it arms a one-shot escalation signal for the next tick.
    pub fn note_queue_wait(&self, secs: f64) {
        if secs >= QUEUE_WAIT_ALARM_SECS {
            self.wait_alarm.store(true, Ordering::Release);
        }
    }

    /// Advance one logical tick with the current queue depth; returns
    /// the (possibly new) state and the transition if one fired.
    ///
    /// Transitions move one severity step at a time and never fire
    /// within `cooldown_ticks` of the previous one.
    pub fn observe(&self, depth: usize) -> (BrownoutState, Option<BrownoutTransition>) {
        let tick = self.tick.fetch_add(1, Ordering::AcqRel) + 1;
        let mut st = self.state.lock();
        let cur = self.state();
        let cap = self.queue_cap as f64;
        let d = depth as f64;
        let alarm = self.wait_alarm.swap(false, Ordering::AcqRel);
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
        if next == cur {
            return (cur, None);
        }
        let cooled = st
            .last_transition
            .is_none_or(|last| tick.saturating_sub(last) >= self.cfg.cooldown_ticks);
        if !cooled {
            return (cur, None);
        }
        self.severity.store(next.severity(), Ordering::Release);
        st.last_transition = Some(tick);
        let transition = BrownoutTransition {
            tick,
            from: cur,
            to: next,
            depth,
        };
        st.log.push(transition);
        (next, Some(transition))
    }

    /// Whether admission should accept a query of `class` at `depth`,
    /// severity aside from the hard queue cap (checked separately).
    pub fn allows(&self, class: CostClass, depth: usize) -> bool {
        let cap = self.queue_cap as f64;
        match (self.state(), class) {
            (BrownoutState::Normal, _) => true,
            (BrownoutState::Brownout, CostClass::Cheap) => true,
            (BrownoutState::Brownout, CostClass::Expensive) => false,
            // Survival mode: cheap work still lands while the queue has
            // drained below the brownout line; expensive never does.
            (BrownoutState::Shed, CostClass::Cheap) => d_lt(depth, self.cfg.brownout_enter * cap),
            (BrownoutState::Shed, CostClass::Expensive) => false,
        }
    }

    /// The `retry_after` hint for a rejection at the current severity:
    /// the base hint doubled per severity level.
    pub fn retry_after_ms(&self) -> u64 {
        RETRY_AFTER_MS << self.state().severity().min(8)
    }

    /// The transition log so far (replay-comparable).
    pub fn transitions(&self) -> Vec<BrownoutTransition> {
        self.state.lock().log.clone()
    }

    /// The transition log as one line per edge — what the acceptance
    /// test asserts replays identically from the seed.
    pub fn transition_log(&self) -> String {
        self.state
            .lock()
            .log
            .iter()
            .map(BrownoutTransition::render)
            .collect::<Vec<_>>()
            .join("\n")
    }
}

fn d_lt(depth: usize, bound: f64) -> bool {
    (depth as f64) < bound
}

impl std::fmt::Debug for BrownoutController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BrownoutController")
            .field("state", &self.state())
            .field("tick", &self.tick())
            .finish()
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
        let ctl = BrownoutController::new(cfg(), 8);
        assert_eq!(ctl.state(), BrownoutState::Normal);
        // Depth 8/8 exceeds both thresholds, but the first edge still
        // only reaches Brownout.
        let (s, t) = ctl.observe(8);
        assert_eq!(s, BrownoutState::Brownout);
        assert_eq!(t.unwrap().from, BrownoutState::Normal);
        // Cooldown: no second edge until cooldown_ticks have elapsed
        // since the first (ticks 2-4 are blocked; tick 5 may fire).
        for _ in 0..3 {
            let (s, t) = ctl.observe(8);
            assert_eq!(s, BrownoutState::Brownout);
            assert!(t.is_none());
        }
        let (s, _) = ctl.observe(8);
        assert_eq!(s, BrownoutState::Shed);
    }

    #[test]
    fn hysteresis_never_oscillates_within_one_cooldown_window() {
        // Property: for an adversarial depth sequence flapping across
        // both thresholds every tick, consecutive transitions are always
        // >= cooldown_ticks apart.
        let cool = 5u64;
        let ctl = BrownoutController::new(
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
        let log = ctl.transitions();
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
        let ctl = BrownoutController::new(cfg(), 8);
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
        let log = ctl.transitions();
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
        assert!(ctl.transition_log().contains("->shed@"));
    }

    #[test]
    fn same_observation_sequence_replays_the_same_log() {
        let depths: Vec<usize> = (0..200)
            .map(|i: usize| (i.wrapping_mul(37) % 11) + if i.is_multiple_of(3) { 6 } else { 0 })
            .collect();
        let run = |seq: &[usize]| {
            let ctl = BrownoutController::new(cfg(), 8);
            for &d in seq {
                ctl.observe(d);
            }
            ctl.transition_log()
        };
        assert_eq!(run(&depths), run(&depths));
    }

    #[test]
    fn shedding_policy_rejects_expensive_first() {
        let ctl = BrownoutController::new(cfg(), 8);
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
        let ctl = BrownoutController::new(cfg(), 8);
        ctl.note_queue_wait(0.5); // below alarm: no-op
        let (s, _) = ctl.observe(0);
        assert_eq!(s, BrownoutState::Normal);
        ctl.note_queue_wait(2.0); // armed
        let (s, t) = ctl.observe(0);
        assert_eq!(s, BrownoutState::Brownout);
        assert_eq!(t.unwrap().depth, 0);
        // The alarm is one-shot: with no new arm and an empty queue the
        // controller recovers after cooldown.
        for _ in 0..4 {
            ctl.observe(0);
        }
        assert_eq!(ctl.state(), BrownoutState::Normal);
    }
}
