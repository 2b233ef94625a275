//! Per-cell, deadline-aware characterization over a durable session —
//! the engine behind the `ca-serve` daemon.
//!
//! The library drivers
//! ([`characterize_library_robust_with_session`](crate::robust::characterize_library_robust_with_session))
//! answer "run this whole library"; a long-running service instead
//! answers one cell at a time, concurrently, with a per-request deadline.
//! [`CellService`] is that front end to the same per-cell pipeline the
//! batch driver folds (lint → golden → prepare/characterize, reduced-
//! budget retries; see [`robust`](crate::robust)). What it adds is its
//! own:
//!
//! - **Open** binds a [`Session`] store to a [`Library`]: journaled
//!   records are re-verified exactly as a batch resume would (stale/
//!   invalid evicted, complete models seeded into the donor cache,
//!   degraded models and quarantine verdicts scheduled for replay).
//! - **Fingerprint guard.** Plan reuse and journaling apply only when the
//!   request's netlist *is* the library cell of that name; a same-name
//!   lookalike is served but never journaled over the library record.
//! - **Memo.** Fresh degraded models and quarantine verdicts are
//!   memoized by netlist fingerprint; complete models need no memo, the
//!   donor cache serves structure-identical repeats.
//! - **Deadlines** propagate into [`SimBudget::wall_clock`] as the
//!   tighter of the request's remaining time and the configured budget.
//!   A result is journaled (under the *configured* budget) only when the
//!   deadline was *not* the binding limit: anything the deadline may
//!   have truncated is answered [`CellVerdict::DeadlineExceeded`] (or
//!   served un-journaled when the configured caps make attribution
//!   ambiguous), so the store never holds bytes a configured-budget run
//!   would not reproduce, and a killed server resumes — and a batch run
//!   over the same store converges — byte-identically.

// Service code runs unattended for days; a stray unwrap kills the
// daemon instead of failing one request.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::cache::{truncating, CharCache};
use crate::error::CoreError;
use crate::matrix::PreparedCell;
use crate::robust::{characterize_cell_retrying, donor_hit, FailurePhase};
use crate::session::{cell_fingerprint, Reuse, Session, SessionPlan, SessionReport};
use ca_defects::GenerateOptions;
use ca_netlist::library::Library;
use ca_netlist::Cell;
use ca_obs::clock::Deadline;
use ca_sim::SimBudget;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{Mutex, MutexGuard};

/// The outcome of one service request.
#[derive(Debug, Clone)]
pub enum CellVerdict {
    /// A model landed: fresh simulation, certified donor hit, or
    /// store-verified reuse. `model` is always populated.
    Model(Box<PreparedCell>),
    /// The cell failed characterization — fresh diagnosis or a replayed
    /// journal verdict.
    Quarantined {
        /// Pipeline phase the failure happened in.
        phase: FailurePhase,
        /// Human-readable diagnosis.
        reason: String,
        /// Reduced-budget retries spent before giving up.
        retries: u32,
    },
    /// The request's deadline was the binding constraint: the work was
    /// cut short (or never started) and nothing was journaled.
    DeadlineExceeded,
}

/// A journaled record served without simulation (snapshot-isolated).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoredVerdict {
    /// A complete model's `.cam` body.
    Complete(String),
    /// A degraded model's `.cam` body.
    Degraded(String),
    /// A quarantine verdict.
    Quarantined {
        /// Diagnosis phase, when the stored byte decodes.
        phase: Option<FailurePhase>,
        /// Stored diagnosis.
        reason: String,
        /// Retries recorded at quarantine time.
        retries: u32,
    },
}

/// Per-cell characterization service over one durable session; see the
/// module docs. `Sync`: requests may run concurrently from any number of
/// threads, serializing only on the journal append and the small plan/
/// memo maps.
pub struct CellService {
    session: Session,
    cache: CharCache,
    options: GenerateOptions,
    budget: SimBudget,
    max_retries: u32,
    plan: SessionPlan,
    /// Fingerprint of each library cell, guarding plan reuse and
    /// journaling against same-name lookalikes submitted inline.
    library_fp: BTreeMap<String, u64>,
    /// Fresh degraded models and quarantine verdicts, keyed by
    /// whole-netlist fingerprint so a name collision between unrelated
    /// cells can never replay the wrong verdict (the same identity check
    /// the session store uses).
    memo: Mutex<BTreeMap<u64, CellVerdict>>,
}

impl std::fmt::Debug for CellService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CellService")
            .field("store", &self.session.path())
            .field("library_cells", &self.library_fp.len())
            .field("cache", &self.cache.stats())
            .finish()
    }
}

impl CellService {
    /// Opens (or resumes) the session store at `store` bound to
    /// `library`, re-verifying every journaled record against the live
    /// netlists exactly like a batch resume.
    ///
    /// # Errors
    ///
    /// [`CoreError::Storage`] when the store cannot be opened; journal
    /// corruption is recovered from, not failed on.
    pub fn open(
        store: impl AsRef<Path>,
        library: &Library,
        options: GenerateOptions,
        budget: SimBudget,
        max_retries: u32,
    ) -> Result<CellService, CoreError> {
        let session = Session::open(store)?;
        let cache = CharCache::new();
        let plan = session.plan(library, options, &budget, &cache, true);
        let library_fp = library
            .cells
            .iter()
            .map(|lc| (lc.cell.name().to_string(), cell_fingerprint(&lc.cell)))
            .collect();
        Ok(CellService {
            session,
            cache,
            options,
            budget,
            max_retries,
            plan,
            library_fp,
            memo: Mutex::new(BTreeMap::new()),
        })
    }

    /// The underlying session (crash hooks, path, report).
    pub fn session(&self) -> &Session {
        &self.session
    }

    /// Session counters (reuse, evictions, journal appends/errors).
    pub fn report(&self) -> SessionReport {
        self.session.report()
    }

    /// Donor-cache counters.
    pub fn cache_stats(&self) -> crate::cache::CacheStats {
        self.cache.stats()
    }

    /// Compacts the journal when it carries duplicates, corruption or
    /// evictions. Called by the server on graceful drain.
    pub fn compact(&self) {
        self.session.maybe_compact();
    }

    /// Snapshot-isolated read of `name`'s journaled record, served
    /// without any simulation.
    pub fn lookup(&self, name: &str) -> Option<StoredVerdict> {
        let record = self.session.snapshot_record(name)?;
        Some(match record.payload {
            ca_store::Payload::Complete { cam } => StoredVerdict::Complete(cam),
            ca_store::Payload::Degraded { cam } => StoredVerdict::Degraded(cam),
            ca_store::Payload::Quarantined {
                phase,
                retries,
                reason,
            } => StoredVerdict::Quarantined {
                phase: crate::session::decode_phase(phase),
                reason,
                retries,
            },
        })
    }

    /// Characterizes one cell under `deadline`, reusing the journaled
    /// store, the certified donor cache and memoized verdicts; fresh
    /// outcomes are journaled as they land (see the module docs for the
    /// deadline/journal interaction). Never panics: cell failures come
    /// back as [`CellVerdict::Quarantined`].
    pub fn characterize_cell(&self, cell: &Cell, deadline: Deadline) -> CellVerdict {
        if deadline.expired() {
            return CellVerdict::DeadlineExceeded;
        }
        let name = cell.name();
        let fp = cell_fingerprint(cell);
        // 1. Store-verified reuse from the open-time plan — only when
        // the request's netlist *is* the library cell the plan verified.
        if self.library_fp.get(name) == Some(&fp) {
            match self.plan.reuse(name) {
                Some(Reuse::Degraded(p)) => return CellVerdict::Model(p.clone()),
                Some(Reuse::Quarantined {
                    phase,
                    retries,
                    reason,
                }) => {
                    return CellVerdict::Quarantined {
                        phase: *phase,
                        reason: reason.clone(),
                        retries: *retries,
                    }
                }
                // The plan seeded the donor; resolve through the
                // certified donor path without lint/golden.
                Some(Reuse::Complete) => return self.coalesced_characterize(cell),
                None => {}
            }
        }
        // 2. Memoized fresh verdicts (exact-identity key).
        if let Some(verdict) = lock(&self.memo).get(&fp) {
            return verdict.clone();
        }
        // 3. Fresh guarded pipeline. (Complete models need no memo: the
        // donor cache serves structure-identical repeats.)
        self.fresh(cell, fp, deadline)
    }

    fn fresh(&self, cell: &Cell, fp: u64, deadline: Deadline) -> CellVerdict {
        let run = characterize_cell_retrying(
            cell,
            self.options,
            &self.budget,
            self.max_retries,
            deadline,
            &self.cache,
        );
        let retries = run.retries;
        // Journal under the *configured* budget — but only when the
        // deadline was not the binding limit, so the stored bytes are
        // exactly what a configured-budget run would produce.
        let durable = !run.deadline_bound && self.journal_allowed(cell.name(), fp);
        match run.outcome {
            Ok(p) => {
                let degraded = p.model.as_ref().is_some_and(|m| m.degraded);
                if degraded && run.deadline_bound && retries == 0 && !truncating(&self.budget) {
                    // The deadline was the only cap that could have
                    // fired: the truncated model is not the configured
                    // answer. Withhold it; nothing journaled.
                    return CellVerdict::DeadlineExceeded;
                }
                if durable {
                    self.session.journal_model(&p, self.options, &self.budget);
                    if degraded {
                        // Mirror what a restart would plan from the
                        // store: degraded models replay to this exact
                        // cell (never as donors).
                        lock(&self.memo).insert(fp, CellVerdict::Model(Box::new(p.clone())));
                    }
                }
                CellVerdict::Model(Box::new(p))
            }
            Err((phase, err)) => {
                // Budget exhaustion the deadline caused — its wall clock
                // fired, or it expired with retries left — is not a cell
                // problem and must not be diagnosed (or journaled) as one.
                if run.deadline_bound
                    && matches!(&err, CoreError::BudgetExceeded { resource, .. }
                        if resource == "wall clock" || retries < self.max_retries)
                {
                    return CellVerdict::DeadlineExceeded;
                }
                let reason = err.to_string();
                if durable {
                    self.session.journal_quarantine(
                        cell,
                        phase,
                        &reason,
                        retries,
                        self.options,
                        &self.budget,
                    );
                }
                let verdict = CellVerdict::Quarantined {
                    phase,
                    reason,
                    retries,
                };
                lock(&self.memo).insert(fp, verdict.clone());
                verdict
            }
        }
    }

    /// Follower fast path for request coalescing: resolves `cell`
    /// through the certified donor cache without re-running lint or the
    /// golden simulation — the leader that just published the donor
    /// already did both on a structure-identical netlist, and the donor
    /// remap re-certifies equivalence per cell. Journals nothing (the
    /// leader's journal entry is the durable copy).
    pub fn coalesced_characterize(&self, cell: &Cell) -> CellVerdict {
        match donor_hit(cell, self.options, &self.cache) {
            Ok(p) => CellVerdict::Model(Box::new(p)),
            Err((phase, err)) => CellVerdict::Quarantined {
                phase,
                reason: err.to_string(),
                retries: 0,
            },
        }
    }

    /// Whether a fresh outcome for `name` may be journaled: yes for
    /// library cells when the request matches the library netlist, yes
    /// for names the library does not own, no for same-name lookalikes
    /// (journaling one would clobber the library cell's record and force
    /// an eviction/re-simulation on the next restart).
    fn journal_allowed(&self, name: &str, fp: u64) -> bool {
        self.library_fp.get(name).is_none_or(|lib| *lib == fp)
    }
}

fn lock<'a, T>(mutex: &'a Mutex<T>) -> MutexGuard<'a, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca_netlist::library::{generate_library, LibraryConfig};
    use ca_netlist::{spice, Technology};
    use std::path::PathBuf;
    use std::time::Duration;

    fn tmp_store(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ca-service-unit-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{tag}.caj"));
        let _ = std::fs::remove_file(&path);
        path
    }

    fn tiny_library() -> Library {
        let mut lib = generate_library(&LibraryConfig::quick(Technology::C40));
        lib.cells.truncate(4);
        lib
    }

    fn open_service(tag: &str, lib: &Library) -> CellService {
        CellService::open(
            tmp_store(tag),
            lib,
            GenerateOptions::default(),
            SimBudget::unlimited(),
            2,
        )
        .unwrap()
    }

    #[test]
    fn serves_and_journals_library_cells() {
        let lib = tiny_library();
        let service = open_service("serve", &lib);
        for lc in &lib.cells {
            match service.characterize_cell(&lc.cell, Deadline::never()) {
                CellVerdict::Model(p) => assert!(p.model.is_some()),
                other => panic!("{}: {other:?}", lc.cell.name()),
            }
        }
        assert_eq!(service.report().journaled, lib.len());
        // Snapshot reads see every journaled record.
        for lc in &lib.cells {
            match service.lookup(lc.cell.name()) {
                Some(StoredVerdict::Complete(cam)) => assert!(!cam.is_empty()),
                other => panic!("{}: {other:?}", lc.cell.name()),
            }
        }
        assert!(service.lookup("NO_SUCH_CELL").is_none());
    }

    #[test]
    fn reopened_service_reuses_without_journaling() {
        let lib = tiny_library();
        let store = tmp_store("reuse");
        let svc = CellService::open(
            &store,
            &lib,
            GenerateOptions::default(),
            SimBudget::unlimited(),
            2,
        )
        .unwrap();
        let mut first = Vec::new();
        for lc in &lib.cells {
            match svc.characterize_cell(&lc.cell, Deadline::never()) {
                CellVerdict::Model(p) => first.push(ca_defects::to_cam(p.model.as_ref().unwrap())),
                other => panic!("{other:?}"),
            }
        }
        drop(svc);
        let svc = CellService::open(
            &store,
            &lib,
            GenerateOptions::default(),
            SimBudget::unlimited(),
            2,
        )
        .unwrap();
        assert_eq!(svc.report().reused_complete, lib.len());
        for (lc, cam) in lib.cells.iter().zip(&first) {
            match svc.characterize_cell(&lc.cell, Deadline::never()) {
                CellVerdict::Model(p) => {
                    assert_eq!(&ca_defects::to_cam(p.model.as_ref().unwrap()), cam)
                }
                other => panic!("{other:?}"),
            }
        }
        assert_eq!(svc.report().journaled, 0, "reuse must not re-journal");
        let _ = std::fs::remove_file(&store);
    }

    #[test]
    fn expired_deadline_is_rejected_without_work_or_journal() {
        let lib = tiny_library();
        let service = open_service("deadline", &lib);
        let verdict =
            service.characterize_cell(&lib.cells[0].cell, Deadline::after(Duration::ZERO));
        assert!(
            matches!(verdict, CellVerdict::DeadlineExceeded),
            "{verdict:?}"
        );
        assert_eq!(service.report().journaled, 0);
    }

    #[test]
    fn broken_cell_is_quarantined_and_memoized() {
        let lib = tiny_library();
        let service = open_service("quarantine", &lib);
        // A floating gate fails lint deterministically.
        let broken = spice::parse_cell(
            ".SUBCKT BROKEN A Z VDD VSS\nMP0 Z X VDD VDD pch\nMN0 Z X VSS VSS nch\n.ENDS",
        )
        .unwrap();
        let first = service.characterize_cell(&broken, Deadline::never());
        let CellVerdict::Quarantined { reason, .. } = first else {
            panic!("{first:?}");
        };
        // The second request replays the memoized verdict.
        let second = service.characterize_cell(&broken, Deadline::never());
        match second {
            CellVerdict::Quarantined { reason: r2, .. } => assert_eq!(r2, reason),
            other => panic!("{other:?}"),
        }
        // Journaled: a restarted service replays it from the store too.
        assert_eq!(service.report().journaled, 1);
    }

    #[test]
    fn lookalike_inline_cell_never_clobbers_a_library_record() {
        let lib = tiny_library();
        let service = open_service("lookalike", &lib);
        let name = lib.cells[0].cell.name().to_string();
        match service.characterize_cell(&lib.cells[0].cell, Deadline::never()) {
            CellVerdict::Model(_) => {}
            other => panic!("{other:?}"),
        }
        // An unrelated inline netlist that reuses a library cell name:
        // served, but never journaled over the library record.
        let lookalike = spice::parse_cell(&format!(
            ".SUBCKT {name} A Z VDD VSS\nMP0 Z A VDD VDD pch\nMN0 Z A VSS VSS nch\n.ENDS"
        ))
        .unwrap();
        match service.characterize_cell(&lookalike, Deadline::never()) {
            CellVerdict::Model(p) => assert!(p.model.is_some()),
            other => panic!("{other:?}"),
        }
        assert_eq!(service.report().journaled, 1, "lookalike must not journal");
        match service.lookup(&name) {
            Some(StoredVerdict::Complete(_)) => {}
            other => panic!("library record clobbered: {other:?}"),
        }
    }
}
