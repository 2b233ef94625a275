//! `campaign`: a production conventional characterization campaign.
//!
//! The Full-profile C40 library with skew and LVT/HVT families (942
//! cells) runs through `characterize_library_robust_with_session` with
//! a fresh `CharCache` and a fresh journal per pass. Golden simulation,
//! packed defect simulation, kernel compile, the certified cache and
//! the journal do nearly all the work; the ML layers do none.
//!
//! The traced run replays the same pass through each layer's public
//! functions one call at a time (lint, golden check, activation,
//! canonical form, kernel compile, detection table, cache remap,
//! journal append), each inside a span, and pairs it with an untraced
//! composite pass on the same inputs. It ends with the serving probe of
//! [`crate::serve::layer_probe`].

use crate::report::{Report, END_TO_END, PER_LAYER};
use crate::spans::{self, span, span_under};
use crate::stats::median;
use crate::{fresh_dir, peak_rss_mb, submission_order, timed, Config, Size};
use ca_bench::Profile;
use ca_core::{
    cell_fingerprint, characterize_library_robust_with_session, export_cam_with, Activation,
    CanonicalCell, CharCache, Executor, FaultPolicy, PreparedCell, Session,
};
use ca_defects::{to_cam, CaModel, DefectUniverse, GenerateOptions};
use ca_netlist::library::Library;
use ca_netlist::lint::{lint, Severity};
use ca_obs::Snapshot;
use ca_sim::{CellKernel, Injection, SimBudget, Simulator, Stimulus};
use ca_store::{Payload, Record, Store};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Library generations per set-up sample, timed together. One takes
/// about 10 ms, while a shared host's speed can switch between levels
/// for a few hundred milliseconds at a time, so a sample must span
/// several switches. A sample is taken before each timed pass and their median
/// reported.
const SETUP_BATCH: usize = 48;
/// Timed passes per untraced run, at least and at most.
const MIN_PASSES: usize = 5;
const MAX_PASSES: usize = 15;
/// Requests of the serving-layer probe in a traced full-size run:
/// enough for ten samples beyond the p99.
const SERVE_PROBE_OPS: usize = 1000;

/// `.cam` file name → body.
pub type Exports = BTreeMap<String, String>;

/// The campaign library in the seeded submission order.
pub fn library(size: Size, seed: u64) -> Library {
    let mut lib = ca_bench::perf::bench_library(match size {
        Size::Full => Profile::Full,
        Size::Tiny => Profile::Quick,
    });
    if size == Size::Tiny {
        lib.cells.truncate(24);
    }
    let order = submission_order(lib.cells.len(), seed);
    Library {
        technology: lib.technology,
        cells: order.into_iter().map(|i| lib.cells[i].clone()).collect(),
    }
}

/// The reference: every cell characterized on its own, uncached and
/// unjournaled.
pub fn reference(lib: &Library, exec: &Executor) -> Exports {
    exec.map(&lib.cells, |_, lc| {
        (
            format!("{}.cam", lc.cell.name()),
            crate::reference_cam(lc.cell.clone()),
        )
    })
    .into_iter()
    .collect()
}

/// Compares exported `.cam` bodies with the reference; `Err` names the
/// first difference.
pub fn check_exports(reference: &Exports, exports: &[(String, String)]) -> Result<(), String> {
    if exports.len() != reference.len() {
        return Err(format!(
            "{} exports for {} cells",
            exports.len(),
            reference.len()
        ));
    }
    for (file, body) in exports {
        match reference.get(file) {
            None => return Err(format!("{file} is not a library cell")),
            Some(want) if want != body => return Err(format!("{file} differs from the reference")),
            Some(_) => {}
        }
    }
    Ok(())
}

/// One composite pass: fresh cache, fresh journal, the production
/// driver. Returns wall seconds, the exports and the quarantine size.
pub fn composite_pass(
    lib: &Library,
    exec: &Executor,
    dir: &Path,
) -> (f64, Vec<(String, String)>, usize) {
    let path = dir.join("composite.caj");
    let _ = std::fs::remove_file(&path);
    let started = Instant::now();
    let cache = CharCache::new();
    let session = Session::open(&path).unwrap_or_else(|e| panic!("session open failed: {e}"));
    let outcome = characterize_library_robust_with_session(
        lib,
        GenerateOptions::default(),
        &SimBudget::unlimited(),
        FaultPolicy::SkipAndReport,
        exec,
        &cache,
        &session,
    );
    let secs = started.elapsed().as_secs_f64();
    drop(session);
    match outcome {
        Ok(out) => (
            secs,
            export_cam_with(&out.prepared, true),
            out.quarantine.len(),
        ),
        Err(e) => panic!("SkipAndReport never returns an error, got {e}"),
    }
}

/// A cell after the prepare stages of the layered pass.
struct Staged {
    prepared: PreparedCell,
    key: Option<(u64, u64, u64)>,
}

/// Lint, golden check, activation and canonical form of one cell.
fn stage_prepare(cell: &ca_netlist::Cell, key: u64) -> Result<Staged, String> {
    {
        let _s = span("netlist.lint", key);
        if let Some(f) = lint(cell)
            .into_iter()
            .find(|f| f.severity == Severity::Error)
        {
            return Err(format!("{}: lint: {f}", cell.name()));
        }
    }
    {
        let _s = span("sim.golden", key);
        let sim = Simulator::with_budget(cell, Injection::None, &SimBudget::unlimited());
        for stimulus in Stimulus::all(cell.num_inputs()) {
            sim.try_run(&stimulus)
                .map_err(|e| format!("{}: golden: {e}", cell.name()))?;
        }
    }
    let activation = {
        let _s = span("core.activation", key);
        Activation::extract(cell).map_err(|e| e.to_string())?
    };
    let _s = span("core.canonical", key);
    let canonical = CanonicalCell::build(cell, &activation).map_err(|e| e.to_string())?;
    let universe = DefectUniverse::intra_transistor(cell);
    let key = (!canonical.is_netlist_ordered()).then(|| {
        (
            canonical.structure_hash(),
            canonical.wiring_hash(),
            canonical.reduced_hash(),
        )
    });
    Ok(Staged {
        prepared: PreparedCell {
            cell: cell.clone(),
            activation,
            canonical,
            universe,
            model: None,
        },
        key,
    })
}

fn journal(store: &Mutex<Store>, p: &PreparedCell, cam: &str, key: u64) -> Result<(), String> {
    let _s = span("store.journal", key);
    let record = Record {
        cell: p.cell.name().to_string(),
        structure: p.canonical.structure_hash(),
        wiring: p.canonical.wiring_hash(),
        reduced: p.canonical.reduced_hash(),
        fingerprint: cell_fingerprint(&p.cell),
        options_tag: 0,
        budget_tag: 0,
        payload: Payload::Complete {
            cam: cam.to_string(),
        },
    };
    store
        .lock()
        .map_err(|_| "journal lock poisoned".to_string())?
        .append(&record)
        .map_err(|e| e.to_string())
}

/// One layered pass: the composite pass's work, one public call per
/// layer, each inside a span. Structure leaders (first of each cache
/// key in submission order) are simulated and seeded into a fresh
/// cache; the rest resolve through the cache's certified remap.
pub fn layered_pass(
    lib: &Library,
    exec: &Executor,
    dir: &Path,
) -> (f64, Vec<(String, String)>, usize) {
    let options = GenerateOptions::default();
    let path = dir.join("layered.caj");
    let _ = std::fs::remove_file(&path);
    let started = Instant::now();
    let pass = span("bench.pass", 0);
    let pass_id = pass.id();
    let store = Mutex::new(Store::open(&path).unwrap_or_else(|e| panic!("store open failed: {e}")));
    let cache = CharCache::new();
    let staged: Vec<Result<Staged, String>> = {
        let _w = span("bench.wait", 0);
        exec.map(&lib.cells, |i, lc| {
            let _item = span_under(pass_id, "bench.item", i as u64);
            stage_prepare(&lc.cell, i as u64)
        })
    };
    let mut leaders = Vec::new();
    let mut followers = Vec::new();
    let mut seen = std::collections::BTreeSet::new();
    for (i, s) in staged.iter().enumerate() {
        if let Ok(s) = s {
            match s.key {
                Some(k) if !seen.insert(k) => followers.push(i),
                _ => leaders.push(i),
            }
        }
    }
    let mut models: Vec<Option<Result<CaModel, String>>> = vec![None; lib.cells.len()];
    let simulate = |i: &usize| -> Result<CaModel, String> {
        let key = *i as u64;
        let _item = span_under(pass_id, "bench.item", key);
        let s = staged[*i].as_ref().map_err(Clone::clone)?;
        let cell = &s.prepared.cell;
        {
            let _k = span("sim.kernel", key);
            std::hint::black_box(CellKernel::compile(cell));
        }
        let model = {
            let _t = span("defects.table", key);
            CaModel::generate(cell, options)
        };
        if s.key.is_some() {
            let _c = span("core.cache.remap", key);
            cache.seed_donor(
                cell.clone(),
                s.prepared.canonical.clone(),
                model.clone(),
                options,
            );
        }
        journal(&store, &s.prepared, &to_cam(&model), key)?;
        Ok(model)
    };
    let simulated = {
        let _w = span("bench.wait", 0);
        exec.map(&leaders, |_, i| simulate(i))
    };
    for (i, m) in leaders.iter().zip(simulated) {
        models[*i] = Some(m);
    }
    let remapped = {
        let _w = span("bench.wait", 0);
        exec.map(&followers, |_, i| {
            let key = *i as u64;
            let _item = span_under(pass_id, "bench.item", key);
            let s = staged[*i].as_ref().map_err(Clone::clone)?;
            let p = {
                let _c = span("core.cache.remap", key);
                cache
                    .characterize(s.prepared.cell.clone(), options)
                    .map_err(|e| e.to_string())?
            };
            let model = p.model.ok_or("cache returned no model")?;
            journal(&store, &s.prepared, &to_cam(&model), key)?;
            Ok(model)
        })
    };
    for (i, m) in followers.iter().zip(remapped) {
        models[*i] = Some(m);
    }
    let mut exports = Vec::new();
    let mut failed = 0;
    for (lc, m) in lib.cells.iter().zip(models) {
        match m {
            Some(Ok(model)) => exports.push((format!("{}.cam", lc.cell.name()), to_cam(&model))),
            _ => failed += 1,
        }
    }
    drop(pass);
    (started.elapsed().as_secs_f64(), exports, failed)
}

pub fn run(config: &Config) -> Report {
    let mut report = Report::new("campaign", config.trace);
    let exec = Executor::with_threads(config.threads);
    let dir = fresh_dir(config, "campaign");

    let lib = library(config.size, config.seed);
    let mut setup = Vec::new();
    let cells = lib.len();
    let reference = reference(&lib, &exec);
    report.check(
        "reference",
        reference.values().all(|b| !b.is_empty()),
        format!("{} cells characterized uncached", reference.len()),
    );

    let record = |report: &mut Report, what: &str, exports: &[(String, String)], failed: usize| {
        report.attempted += cells as u64;
        report.failed += failed as u64;
        let verdict = check_exports(&reference, exports);
        let ok = verdict.is_ok() && failed == 0;
        if !ok || !report.checks.iter().any(|c| c.name == what) {
            let detail = verdict.err().unwrap_or_else(|| {
                format!("{cells} .cam exports byte-equal to the reference, {failed} failed")
            });
            report.check(what, ok, detail);
        }
    };

    let mut values: BTreeMap<&str, (f64, usize)> = BTreeMap::new();
    if !config.trace {
        let mut passes = Vec::new();
        let started = Instant::now();
        while passes.len() < MIN_PASSES
            || (started.elapsed().as_secs_f64() < config.seconds && passes.len() < MAX_PASSES)
        {
            let (_, batch_s) = timed(|| {
                for _ in 0..SETUP_BATCH {
                    std::hint::black_box(library(config.size, config.seed));
                }
            });
            setup.push(batch_s / SETUP_BATCH as f64);
            let (secs, exports, quarantined) = composite_pass(&lib, &exec, &dir);
            record(&mut report, "composite exports", &exports, quarantined);
            passes.push(secs);
        }
        let pass_s = median(&passes);
        values.insert("setup_s", (median(&setup), setup.len()));
        values.insert("cells_per_s", (cells as f64 / pass_s, passes.len()));
        values.insert("latency_p50_ms", (pass_s * 1e3, passes.len()));
        values.insert("peak_rss_mb", (peak_rss_mb(), 1));
        report.detail("cells", cells as f64, "count", 1);
        report.detail("threads", config.threads as f64, "count", 1);
        report.detail(
            "pass_s_min",
            passes.iter().copied().fold(f64::MAX, f64::min),
            "s",
            passes.len(),
        );
        report.detail(
            "pass_s_max",
            passes.iter().copied().fold(0.0, f64::max),
            "s",
            passes.len(),
        );
        report.set_metrics(&END_TO_END, &values);
        return report;
    }

    // Traced: alternate untraced composite and traced layered passes.
    let (mut composite, mut layered) = (Vec::new(), Vec::new());
    let mut delta = Snapshot::default();
    let mut traced = Vec::new();
    for round in 0..2 {
        for layered_pass_now in [round % 2 == 1, round % 2 == 0] {
            if layered_pass_now {
                spans::set_enabled(true);
                let (secs, exports, failed) = layered_pass(&lib, &exec, &dir);
                spans::set_enabled(false);
                traced.extend(spans::take());
                record(&mut report, "layered exports", &exports, failed);
                layered.push(secs);
            } else {
                let before = ca_obs::global().snapshot();
                let (secs, exports, quarantined) = composite_pass(&lib, &exec, &dir);
                delta = ca_obs::global().snapshot().delta(&before);
                record(&mut report, "composite exports", &exports, quarantined);
                composite.push(secs);
            }
        }
    }
    // Memoization and parallelism, separately, on a seeded quarter.
    let quarter = Library {
        technology: lib.technology,
        cells: lib.cells[..cells.div_ceil(4)].to_vec(),
    };
    let quarter_reference: Exports = quarter
        .cells
        .iter()
        .map(|lc| format!("{}.cam", lc.cell.name()))
        .filter_map(|file| reference.get(&file).map(|body| (file, body.clone())))
        .collect();
    let (cached, cached_exports, _) = composite_pass(&quarter, &exec, &dir);
    let (serial, serial_exports, _) = composite_pass(&quarter, &Executor::with_threads(1), &dir);
    for (what, exports) in [
        ("quarter, cached", cached_exports),
        ("quarter, one thread", serial_exports),
    ] {
        if let Err(e) = check_exports(&quarter_reference, &exports) {
            report.check(what, false, e);
        }
    }
    let uncached = {
        let started = Instant::now();
        std::hint::black_box(self::reference(&quarter, &exec));
        started.elapsed().as_secs_f64()
    };

    let n = layered.len() as f64;
    let busy = spans::busy_by_name(&traced);
    let totals = spans::total_by_name(&traced);
    let get = |m: &BTreeMap<&str, f64>, k: &str| m.get(k).copied().unwrap_or(0.0) / n;
    for (metric, span_name) in [
        ("netlist.lint.busy_s", "netlist.lint"),
        ("sim.golden.busy_s", "sim.golden"),
        ("core.activation.busy_s", "core.activation"),
        ("core.canonical.busy_s", "core.canonical"),
        ("sim.kernel.busy_s", "sim.kernel"),
        ("defects.table.busy_s", "defects.table"),
        ("core.cache.remap_busy_s", "core.cache.remap"),
        ("store.journal.busy_s", "store.journal"),
    ] {
        values.insert(metric, (get(&busy, span_name), layered.len()));
    }
    // `CaModel::generate` compiles the kernel again inside the table
    // span; the separate compile measured that cost, so it is taken out
    // of the table and each layer holds the program's cost once.
    let compile_s = get(&busy, "sim.kernel");
    values.insert(
        "defects.table.busy_s",
        (
            (get(&busy, "defects.table") - compile_s).max(0.0),
            layered.len(),
        ),
    );
    crate::layer_counters(&delta, &mut values);
    let wait = get(&totals, "bench.wait");
    values.insert(
        "exec.busy_share",
        (
            get(&totals, "bench.item") / (config.threads as f64 * wait).max(1e-12),
            layered.len(),
        ),
    );
    let (work, attributed) = spans::work_and_attributed(&traced, "bench.wait");
    values.insert(
        "bench.residue_share",
        (1.0 - attributed / work.max(1e-12), layered.len()),
    );
    values.insert(
        "bench.trace_overhead",
        (median(&layered) / median(&composite) - 1.0, layered.len()),
    );
    values.insert("core.cache.memo_speedup", (uncached / cached, 1));
    values.insert("exec.thread_scaling", (serial / cached, 1));
    report.detail("composite_pass_s", median(&composite), "s", composite.len());
    report.detail("layered_pass_s", median(&layered), "s", layered.len());
    report.detail("quarter_cells", quarter.len() as f64, "count", 1);
    // The serving layers have no workload of their own; a probe serves
    // this library and measures them here.
    let probe_ops = match config.size {
        Size::Full => SERVE_PROBE_OPS,
        Size::Tiny => 60,
    };
    crate::serve::layer_probe(config, probe_ops, &mut report, &mut values);
    crate::write_spans(config, "campaign", &traced);
    report.set_metrics(&PER_LAYER, &values);
    report
}
