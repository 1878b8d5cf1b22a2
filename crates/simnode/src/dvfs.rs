//! DVFS P-state table and duty-cycle throttling.
//!
//! The simulated processor exposes a discrete ladder of frequency states
//! (P-states), like `acpi-cpufreq`/`intel_pstate` would. RAPL-style power
//! capping picks the highest state whose power fits the cap; when even the
//! lowest state is too hot, the hardware falls back to clock modulation
//! (duty-cycle throttling, T-states), which we model as a continuous
//! effective frequency below `f_min`.

use serde::{Deserialize, Error, Serialize, Value};
use simkit::Frequency;
use std::sync::Arc;

/// Discrete frequency ladder, ascending. Cloning shares the ladder, so a
/// cluster whose nodes are clones of one table holds one copy of it.
/// Deserializing checks the ladder as [`PStateTable::new`] does, so a bad
/// node description fails where it is read.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PStateTable {
    /// Ascending frequencies in GHz.
    states: Arc<[Frequency]>,
}

impl PStateTable {
    /// Build from an ascending, non-empty list of frequencies.
    pub fn new(states: Vec<Frequency>) -> Self {
        let invalid = Self::invalid(&states);
        assert!(invalid.is_none(), "{}", invalid.unwrap_or_default());
        Self {
            states: states.into(),
        }
    }

    /// Why a ladder of `states` cannot be built, if it cannot.
    fn invalid(states: &[Frequency]) -> Option<&'static str> {
        if states.is_empty() {
            Some("P-state table must be non-empty")
        } else if !states.windows(2).all(|w| w[0] < w[1]) {
            Some("P-states must be strictly ascending")
        } else {
            None
        }
    }

    /// The reproduction's Haswell-like ladder: 1.2 GHz to 2.3 GHz in 0.1 GHz
    /// steps (E5-2670v3 nominal 2.3 GHz; turbo is left out because the paper
    /// caps power, where turbo headroom is the first thing to go).
    pub fn haswell() -> Self {
        let states = (12..=23).map(|d| Frequency::ghz(d as f64 / 10.0)).collect();
        Self::new(states)
    }

    /// Lowest available frequency.
    pub fn f_min(&self) -> Frequency {
        self.states[0]
    }

    /// Highest available frequency.
    pub fn f_max(&self) -> Frequency {
        // `states` is non-empty by construction (`new` asserts it).
        self.states.last().copied().unwrap_or(Frequency::ghz(0.0))
    }

    /// Number of states.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// True if the ladder has exactly one state.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// All states, ascending.
    pub fn states(&self) -> &[Frequency] {
        &self.states
    }

    /// States from highest to lowest (the order a capping controller
    /// searches them in).
    pub fn descending(&self) -> impl Iterator<Item = Frequency> + '_ {
        self.states.iter().rev().copied()
    }

    /// Highest state `≤ f`, or `None` if `f` is below the ladder.
    pub fn floor(&self, f: Frequency) -> Option<Frequency> {
        self.states.iter().rev().copied().find(|&s| s <= f)
    }

    /// Snap to the nearest state (ties resolve downward).
    pub fn nearest(&self, f: Frequency) -> Frequency {
        // Ascending iteration with a strict improvement test: on a distance
        // tie the earlier (lower) frequency wins — conservative under a cap.
        let mut best = self.f_min();
        let mut best_d = (best.as_ghz() - f.as_ghz()).abs();
        for &s in self.states.iter() {
            let d = (s.as_ghz() - f.as_ghz()).abs();
            if d.total_cmp(&best_d).is_lt() {
                best = s;
                best_d = d;
            }
        }
        best
    }
}

impl Deserialize for PStateTable {
    fn deserialize_value(v: &Value) -> Result<Self, Error> {
        if !matches!(v, Value::Object(_)) {
            return Err(Error::invalid_type("object", v));
        }
        let states: Vec<Frequency> = match v.get("states") {
            Some(x) => Vec::deserialize_value(x)?,
            None => return serde::missing_field("states"),
        };
        match Self::invalid(&states) {
            Some(why) => Err(Error::custom(format!("invalid P-state table: {why}"))),
            None => Ok(Self {
                states: states.into(),
            }),
        }
    }
}

/// An effective processor speed: either a discrete P-state, or `f_min`
/// duty-cycled below its nominal rate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum EffectiveSpeed {
    /// Running steadily at a ladder frequency.
    PState(Frequency),
    /// Clock modulation: running at `f_min` but only `duty` (0, 1] of the
    /// time; effective frequency is `f_min · duty`.
    Throttled {
        /// The lowest P-state being modulated.
        f_min: Frequency,
        /// Fraction of time the clock runs, in (0, 1].
        duty: f64,
    },
}

impl EffectiveSpeed {
    /// The throughput-equivalent frequency.
    pub fn effective_frequency(self) -> Frequency {
        match self {
            EffectiveSpeed::PState(f) => f,
            EffectiveSpeed::Throttled { f_min, duty } => f_min * duty,
        }
    }

    /// True when the processor had to drop below its slowest P-state.
    pub fn is_throttled(self) -> bool {
        matches!(self, EffectiveSpeed::Throttled { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn haswell_ladder_shape() {
        let t = PStateTable::haswell();
        assert_eq!(t.len(), 12);
        assert_eq!(t.f_min(), Frequency::ghz(1.2));
        assert_eq!(t.f_max(), Frequency::ghz(2.3));
    }

    #[test]
    fn descending_order() {
        let t = PStateTable::haswell();
        let v: Vec<_> = t.descending().collect();
        assert_eq!(v[0], Frequency::ghz(2.3));
        assert_eq!(*v.last().unwrap(), Frequency::ghz(1.2));
    }

    #[test]
    fn floor_semantics() {
        let t = PStateTable::haswell();
        assert_eq!(t.floor(Frequency::ghz(2.05)), Some(Frequency::ghz(2.0)));
        assert_eq!(t.floor(Frequency::ghz(1.2)), Some(Frequency::ghz(1.2)));
        assert_eq!(t.floor(Frequency::ghz(1.19)), None);
        assert_eq!(t.floor(Frequency::ghz(9.0)), Some(Frequency::ghz(2.3)));
    }

    #[test]
    fn nearest_snaps() {
        let t = PStateTable::haswell();
        assert_eq!(t.nearest(Frequency::ghz(1.74)), Frequency::ghz(1.7));
        assert_eq!(t.nearest(Frequency::ghz(0.3)), Frequency::ghz(1.2));
        assert_eq!(t.nearest(Frequency::ghz(5.0)), Frequency::ghz(2.3));
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn rejects_unsorted() {
        PStateTable::new(vec![Frequency::ghz(2.0), Frequency::ghz(1.0)]);
    }

    #[test]
    fn effective_speed() {
        let s = EffectiveSpeed::PState(Frequency::ghz(2.0));
        assert_eq!(s.effective_frequency(), Frequency::ghz(2.0));
        assert!(!s.is_throttled());
        let th = EffectiveSpeed::Throttled {
            f_min: Frequency::ghz(1.2),
            duty: 0.5,
        };
        assert!((th.effective_frequency().as_ghz() - 0.6).abs() < 1e-12);
        assert!(th.is_throttled());
    }
}
