//! A design: a system plus a selected implementation per process.
//!
//! Matches the paper's notion of an *implementation* (e.g. M1, M2 in
//! Section 6): a concrete choice of Pareto-optimal micro-architecture for
//! every process, inducing the process latencies of the system model and
//! the total area of the SoC.

use crate::error::ErmesError;
use hlsim::ParetoSet;
use std::sync::Arc;
use sysgraph::{ProcessId, SystemGraph};

/// A system together with per-process Pareto sets and the currently
/// selected implementation of each process.
///
/// Invariants: one Pareto set and one valid selection per process; the
/// system's process latencies always equal the selected implementations'
/// latencies.
///
/// The Pareto sets never change after [`Design::new`], so clones share
/// them: a sweep clones its base design once per target.
#[derive(Debug, Clone)]
pub struct Design {
    system: SystemGraph,
    pareto: Arc<[ParetoSet]>,
    selected: Vec<usize>,
}

impl Design {
    /// Creates a design selecting, for every process, the Pareto point
    /// whose latency matches the system's current latency if present,
    /// otherwise the closest one.
    ///
    /// # Errors
    ///
    /// [`ErmesError::ParetoSizeMismatch`] if `pareto.len()` differs from
    /// the process count.
    pub fn new(system: SystemGraph, pareto: Vec<ParetoSet>) -> Result<Self, ErmesError> {
        if pareto.len() != system.process_count() {
            return Err(ErmesError::ParetoSizeMismatch {
                processes: system.process_count(),
                pareto_sets: pareto.len(),
            });
        }
        let selected: Vec<usize> = system
            .process_ids()
            .map(|p| {
                let want = system.process(p).latency();
                let set = &pareto[p.index()];
                set.points()
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, m)| m.latency.abs_diff(want))
                    .map(|(i, _)| i)
                    .expect("pareto sets are non-empty")
            })
            .collect();
        let mut design = Design {
            system,
            pareto: pareto.into(),
            selected,
        };
        design.sync_latencies();
        Ok(design)
    }

    /// Re-selects the fastest implementation for every process (the
    /// paper's M1-style configuration).
    pub fn select_fastest(&mut self) {
        for i in 0..self.selected.len() {
            self.selected[i] = 0;
        }
        self.sync_latencies();
    }

    /// Re-selects the smallest implementation for every process.
    pub fn select_smallest(&mut self) {
        for (i, set) in self.pareto.iter().enumerate() {
            self.selected[i] = set.len() - 1;
        }
        self.sync_latencies();
    }

    /// The underlying system (latencies reflect the current selection).
    #[must_use]
    pub fn system(&self) -> &SystemGraph {
        &self.system
    }

    /// Mutable access to the system for ordering updates only; latencies
    /// are re-synchronized from the selection afterwards.
    pub fn system_mut(&mut self) -> &mut SystemGraph {
        &mut self.system
    }

    /// The Pareto set of process `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    #[must_use]
    pub fn pareto(&self, p: ProcessId) -> &ParetoSet {
        &self.pareto[p.index()]
    }

    /// Currently selected implementation index of process `p`.
    #[must_use]
    pub fn selected(&self, p: ProcessId) -> usize {
        self.selected[p.index()]
    }

    /// The full selection vector (one index per process).
    #[must_use]
    pub fn selection(&self) -> &[usize] {
        &self.selected
    }

    /// Selects implementation `idx` for process `p`, updating the system
    /// latency.
    ///
    /// # Errors
    ///
    /// [`ErmesError::SelectionOutOfRange`] if `idx` is not a valid Pareto
    /// point of `p`.
    pub fn select(&mut self, p: ProcessId, idx: usize) -> Result<(), ErmesError> {
        let set = &self.pareto[p.index()];
        if idx >= set.len() {
            return Err(ErmesError::SelectionOutOfRange {
                process: p.index(),
                selected: idx,
                available: set.len(),
            });
        }
        self.selected[p.index()] = idx;
        let latency = set.points()[idx].latency;
        self.system.set_latency(p, latency);
        Ok(())
    }

    /// Applies a whole selection vector.
    ///
    /// # Errors
    ///
    /// [`ErmesError::SelectionOutOfRange`] on the first invalid entry
    /// (earlier entries are already applied).
    pub fn apply_selection(&mut self, selection: &[usize]) -> Result<(), ErmesError> {
        for (i, &idx) in selection.iter().enumerate() {
            self.select(ProcessId::from_index(i), idx)?;
        }
        Ok(())
    }

    /// Current latency of process `p` (selected implementation).
    #[must_use]
    pub fn latency(&self, p: ProcessId) -> u64 {
        self.pareto[p.index()].points()[self.selected[p.index()]].latency
    }

    /// Current area of process `p` (selected implementation).
    #[must_use]
    pub fn process_area(&self, p: ProcessId) -> f64 {
        self.pareto[p.index()].points()[self.selected[p.index()]].area
    }

    /// Total area of the design: sum of selected implementation areas.
    #[must_use]
    pub fn area(&self) -> f64 {
        self.system
            .process_ids()
            .map(|p| self.process_area(p))
            .sum()
    }

    /// Total number of Pareto points across all processes (Table 1 of the
    /// paper reports 171 for the MPEG-2 encoder).
    #[must_use]
    pub fn pareto_point_count(&self) -> usize {
        self.pareto.iter().map(ParetoSet::len).sum()
    }

    fn sync_latencies(&mut self) {
        for i in 0..self.selected.len() {
            let latency = self.pareto[i].points()[self.selected[i]].latency;
            self.system.set_latency(ProcessId::from_index(i), latency);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlsim::{HlsKnobs, MicroArch};

    fn pareto(latencies_areas: &[(u64, f64)]) -> ParetoSet {
        ParetoSet::from_candidates(
            latencies_areas
                .iter()
                .map(|&(latency, area)| MicroArch {
                    knobs: HlsKnobs::baseline(),
                    latency,
                    area,
                })
                .collect(),
        )
    }

    fn two_process_design() -> Design {
        let mut sys = SystemGraph::new();
        let a = sys.add_process("a", 10);
        let b = sys.add_process("b", 20);
        sys.add_channel("x", a, b, 1).expect("valid");
        Design::new(
            sys,
            vec![
                pareto(&[(5, 3.0), (10, 1.0)]),
                pareto(&[(8, 4.0), (20, 2.0)]),
            ],
        )
        .expect("sizes match")
    }

    #[test]
    fn new_snaps_to_matching_latencies() {
        let d = two_process_design();
        assert_eq!(d.latency(ProcessId::from_index(0)), 10);
        assert_eq!(d.latency(ProcessId::from_index(1)), 20);
        assert!((d.area() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn size_mismatch_is_rejected() {
        let mut sys = SystemGraph::new();
        sys.add_process("a", 1);
        assert!(matches!(
            Design::new(sys, vec![]),
            Err(ErmesError::ParetoSizeMismatch { .. })
        ));
    }

    #[test]
    fn select_updates_system_latency() {
        let mut d = two_process_design();
        let a = ProcessId::from_index(0);
        d.select(a, 0).expect("valid index");
        assert_eq!(d.system().process(a).latency(), 5);
        assert!((d.area() - (3.0 + 2.0)).abs() < 1e-12);
    }

    #[test]
    fn out_of_range_selection_errors() {
        let mut d = two_process_design();
        assert!(matches!(
            d.select(ProcessId::from_index(0), 7),
            Err(ErmesError::SelectionOutOfRange { .. })
        ));
    }

    #[test]
    fn fastest_and_smallest_profiles() {
        let mut d = two_process_design();
        d.select_fastest();
        assert_eq!(d.latency(ProcessId::from_index(0)), 5);
        assert_eq!(d.latency(ProcessId::from_index(1)), 8);
        assert!((d.area() - 7.0).abs() < 1e-12);
        d.select_smallest();
        assert!((d.area() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn pareto_point_count_sums() {
        let d = two_process_design();
        assert_eq!(d.pareto_point_count(), 4);
    }
}
