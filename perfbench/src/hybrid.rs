//! `hybrid`: the paper's §V.C flow, measured on this substrate.
//!
//! Three phases, each timed on its own:
//!
//! 1. set-up: characterize the quick Soi28 corpus (seeded order, shared
//!    cache, `threads` workers);
//! 2. training: `HybridFlow::new` with the ML flow's quick parameters,
//!    training data retained and reinforcement on;
//! 3. routing: every quick C40 cell through `HybridFlow::generate`, one
//!    call per cell, in seeded order.
//!
//! Afterwards, untimed as part of the routing phase, every evaluated
//! cell runs once through the plain conventional flow. That is the
//! ground truth for the accuracy check and the measured comparison
//! behind `conventional_ms_p50`. Forest fit/predict, CA-matrix encoding
//! and the structural gate dominate; the cache and journal are absent.

use crate::report::{Report, END_TO_END, PER_LAYER};
use crate::spans::{self, span};
use crate::stats::{median, percentile};
use crate::{peak_rss_mb, submission_order, timed, Config, Size};
use ca_bench::Profile;
use ca_core::{
    conventional_flow, Activation, CanonicalCell, CharCache, CostModel, Executor, HybridFlow,
    HybridOptions, MlFlowParams, PreparedCell, Route, StructuralMatch,
};
use ca_defects::{to_cam, CaModel, DefectUniverse, GenerateOptions};
use ca_ml::Dataset;
use ca_netlist::library::generate_library;
use ca_netlist::{Cell, Technology};
use std::collections::BTreeMap;
use std::time::Instant;

/// Set-ups at each of the untraced run's sampling points (start, after
/// training, after each round of timed ML routes, after routing and
/// after the ground truth); the median of all is reported.
const SETUPS_PER_POINT: usize = 2;
/// Rounds of timed ML routes on the trained flow, untraced: at least
/// this many, and more until half of `--seconds` has passed.
const ML_MIN_ROUNDS: usize = 5;

/// The quick library of `tech` in submission order: the seed shuffles
/// the order of cell families (templates); within a family cells keep
/// library order, base drive first. Which member of a family reaches
/// the gate first decides whether a small or a large cell is simulated
/// and reinforced, so a per-cell shuffle would make the routing cost a
/// lottery over seeds rather than a property of the flow.
fn cells(tech: Technology, size: Size, seed: u64) -> Vec<Cell> {
    let mut lib = generate_library(&Profile::Quick.library_config(tech));
    if size == Size::Tiny {
        lib.cells
            .truncate(if tech == Technology::C40 { 10 } else { 16 });
    }
    let mut families: Vec<&str> = Vec::new();
    for lc in &lib.cells {
        if !families.contains(&lc.template.as_str()) {
            families.push(&lc.template);
        }
    }
    submission_order(families.len(), seed)
        .into_iter()
        .flat_map(|f| {
            let family = families[f];
            lib.cells.iter().filter(move |lc| lc.template == family)
        })
        .map(|lc| lc.cell.clone())
        .collect()
}

/// Phase 1: the characterized training corpus.
fn corpus(cells: &[Cell], exec: &Executor) -> Result<Vec<PreparedCell>, String> {
    let cache = CharCache::new();
    exec.map(cells, |_, cell| {
        cache
            .characterize(cell.clone(), GenerateOptions::default())
            .map_err(|e| e.to_string())
    })
    .into_iter()
    .collect()
}

fn train(corpus: &[PreparedCell]) -> HybridFlow {
    HybridFlow::new(
        corpus,
        MlFlowParams::quick(),
        CostModel::paper_calibrated(),
        HybridOptions {
            reinforce: true,
            evaluate_ml_accuracy: false,
            generate: GenerateOptions::default(),
        },
    )
    .unwrap_or_else(|e| panic!("training failed: {e}"))
}

/// One routed cell.
#[derive(Debug, Clone)]
pub struct Routed {
    pub name: String,
    pub ml: bool,
    /// The routing call's wall time.
    pub secs: f64,
    pub cam: String,
    pub model: CaModel,
}

/// Checks routed models against the conventional ground truth:
/// simulated routes must be byte-equal, ML routes are scored with
/// `CaModel::agreement`. Returns the mean ML accuracy.
pub fn check_routes(routed: &[Routed], truth: &BTreeMap<String, CaModel>) -> Result<f64, String> {
    let mut accuracy = Vec::new();
    for r in routed {
        let want = truth
            .get(&r.name)
            .ok_or_else(|| format!("{} has no ground truth", r.name))?;
        if r.ml {
            accuracy.push(want.agreement(&r.model));
        } else if to_cam(want) != r.cam {
            return Err(format!(
                "simulated route of {} differs from the conventional flow",
                r.name
            ));
        }
    }
    Ok(crate::stats::mean(&accuracy))
}

/// Training rows the forests were first fitted on: every row of every
/// corpus cell, with the ML flow's per-cell cap keeping all positives
/// and enough negatives to reach the cap.
fn fit_rows(corpus: &[PreparedCell]) -> f64 {
    let cap = MlFlowParams::quick()
        .max_rows_per_cell
        .unwrap_or(usize::MAX);
    corpus
        .iter()
        .map(|p| {
            let mut data = Dataset::new(p.layout().num_features());
            p.training_rows(&mut data);
            let positives = data.labels().iter().filter(|&&l| l == 1).count();
            let negatives = data.len() - positives;
            if data.len() <= cap {
                data.len()
            } else {
                positives + negatives.min(cap.saturating_sub(positives).max(1))
            }
        })
        .sum::<usize>() as f64
}

/// Layered ML route of one cell: prepare, gate, encode and predict as
/// separate public calls. `None` when the gate sends it to simulation.
fn layered_ml(flow: &HybridFlow, cell: &Cell, key: u64) -> Result<Option<CaModel>, String> {
    let activation = {
        let _s = span("core.activation", key);
        Activation::extract(cell).map_err(|e| e.to_string())?
    };
    let prepared = {
        let _s = span("core.canonical", key);
        let canonical = CanonicalCell::build(cell, &activation).map_err(|e| e.to_string())?;
        PreparedCell {
            cell: cell.clone(),
            activation,
            canonical,
            universe: DefectUniverse::intra_transistor(cell),
            model: None,
        }
    };
    let use_ml = {
        let _s = span("core.flow.gate", key);
        flow.index().classify(&prepared.canonical) != StructuralMatch::New
            && flow.ml().covers(&prepared)
    };
    if !use_ml {
        return Ok(None);
    }
    {
        let _s = span("core.matrix.encode", key);
        let stimuli = prepared.activation.stimuli().len();
        for defect in prepared.universe.defects() {
            for s in 0..stimuli {
                std::hint::black_box(prepared.encode_row(s, defect.injection));
            }
        }
    }
    let _s = span("ml.predict", key);
    flow.ml()
        .predict(&prepared)
        .map(Some)
        .map_err(|e| e.to_string())
}

fn fit_timer_s(snapshot: &ca_obs::Snapshot) -> f64 {
    snapshot
        .timers
        .get("ca_ml.forest.fit")
        .map_or(0.0, |t| t.total_ns as f64 / 1e9)
}

pub fn run(config: &Config) -> Report {
    let mut report = Report::new("hybrid", config.trace);
    let exec = Executor::with_threads(config.threads);
    let training = cells(Technology::Soi28, config.size, config.seed);
    let evaluated = cells(Technology::C40, config.size, config.seed);

    let (corpus_cells, first_setup) = timed(|| corpus(&training, &exec));
    let corpus_cells = corpus_cells.unwrap_or_else(|e| panic!("corpus failed: {e}"));
    let mut setup = vec![first_setup];
    // Set-up takes tens of milliseconds: repeated at points spread over
    // the run, it samples the host's speed over the whole run, as the
    // timed phases do. The traced run does not report it.
    let more_setups = |setup: &mut Vec<f64>| {
        for _ in 0..if config.trace { 0 } else { SETUPS_PER_POINT } {
            setup.push(timed(|| std::hint::black_box(corpus(&training, &exec))).1);
        }
    };
    more_setups(&mut setup);

    let before = ca_obs::global().snapshot();
    let train_started = Instant::now();
    let mut flow = train(&corpus_cells);
    let train_s = train_started.elapsed().as_secs_f64();
    let trained = ca_obs::global().snapshot().delta(&before);
    more_setups(&mut setup);

    // The ML route of every cell the trained flow's gate sends to ML,
    // timed before routing: the trained flow and that set of cells do
    // not depend on the submission order, and an ML route reads the
    // flow without changing it. Rounds interleave the cells so each
    // cell's repeats are spread over the phase; the phase lasts seconds,
    // because a shared host's speed drifts over seconds.
    let gated: Vec<&Cell> = evaluated
        .iter()
        .filter(|cell| {
            PreparedCell::prepare((*cell).clone()).is_ok_and(|p| {
                flow.index().classify(&p.canonical) != StructuralMatch::New && flow.ml().covers(&p)
            })
        })
        .collect();
    let mut trained_ms: Vec<Vec<f64>> = vec![Vec::new(); gated.len()];
    let mut first_predictions: Vec<Option<CaModel>> = vec![None; gated.len()];
    let ml_started = Instant::now();
    let mut rounds = 0;
    while !config.trace
        && (rounds < ML_MIN_ROUNDS || ml_started.elapsed().as_secs_f64() < config.seconds / 2.0)
    {
        rounds += 1;
        for (i, cell) in gated.iter().enumerate() {
            let started = Instant::now();
            let out = flow.generate((*cell).clone());
            trained_ms[i].push(started.elapsed().as_secs_f64() * 1e3);
            match out {
                Ok((model, outcome)) if matches!(outcome.route, Route::Ml(_)) => {
                    let first = first_predictions[i].get_or_insert_with(|| model.clone());
                    if *first != model {
                        report.check(
                            "repeatable ML route",
                            false,
                            format!("{} predicted differently on repeat", cell.name()),
                        );
                    }
                }
                _ => report.check(
                    "ML route on the trained flow",
                    false,
                    format!("{} did not take the ML route", cell.name()),
                ),
            }
        }
        more_setups(&mut setup);
    }
    let trained_ml_ms: Vec<f64> = trained_ms
        .iter()
        .filter(|t| !t.is_empty())
        .map(|t| median(t))
        .collect();

    let mut routed = Vec::new();
    let (mut traced_ml, mut composite_ml) = (Vec::new(), Vec::new());
    spans::set_enabled(config.trace);
    let route_before = ca_obs::global().snapshot();
    for (i, cell) in evaluated.iter().enumerate() {
        report.attempted += 1;
        let key = i as u64;
        if config.trace {
            let started = Instant::now();
            let item = span("bench.item", key);
            let layered = layered_ml(&flow, cell, key);
            let layered = match layered {
                Ok(None) => {
                    let out = {
                        let _s = span("core.flow.sim_route", key);
                        flow.generate(cell.clone())
                    };
                    drop(item);
                    match out {
                        Ok((model, outcome)) if outcome.route == Route::Simulated => {
                            let secs = started.elapsed().as_secs_f64();
                            routed.push(Routed {
                                name: cell.name().to_string(),
                                ml: false,
                                secs,
                                cam: to_cam(&model),
                                model,
                            });
                        }
                        Ok(_) => report.check(
                            "layered gate",
                            false,
                            format!("{} gated to simulation but routed to ML", cell.name()),
                        ),
                        Err(e) => {
                            report.failed += 1;
                            report.check("routing", false, format!("{}: {e}", cell.name()));
                        }
                    }
                    continue;
                }
                other => other,
            };
            drop(item);
            let secs = started.elapsed().as_secs_f64();
            // The same route untraced, on the same flow state: an ML
            // route reads the flow without changing it.
            spans::set_enabled(false);
            let started = Instant::now();
            let composite = flow.generate(cell.clone());
            let composite_secs = started.elapsed().as_secs_f64();
            spans::set_enabled(true);
            match (layered, composite) {
                (Ok(Some(model)), Ok((composite_model, outcome)))
                    if matches!(outcome.route, Route::Ml(_)) && composite_model == model =>
                {
                    traced_ml.push(secs);
                    composite_ml.push(composite_secs);
                    routed.push(Routed {
                        name: cell.name().to_string(),
                        ml: true,
                        secs,
                        cam: to_cam(&model),
                        model,
                    });
                }
                (l, c) => {
                    report.failed += 1;
                    report.check(
                        "layered route",
                        false,
                        format!(
                            "{}: layered {:?} vs composite {:?}",
                            cell.name(),
                            l.err(),
                            c.err()
                        ),
                    );
                }
            }
        } else {
            let started = Instant::now();
            match flow.generate(cell.clone()) {
                Ok((model, outcome)) => {
                    let secs = started.elapsed().as_secs_f64();
                    routed.push(Routed {
                        name: cell.name().to_string(),
                        ml: matches!(outcome.route, Route::Ml(_)),
                        secs,
                        cam: to_cam(&model),
                        model,
                    });
                }
                Err(e) => {
                    report.failed += 1;
                    report.check("routing", false, format!("{}: {e}", cell.name()));
                }
            }
        }
    }
    spans::set_enabled(false);
    let route_delta = ca_obs::global().snapshot().delta(&route_before);
    let traced = spans::take();
    more_setups(&mut setup);

    // Ground truth, and the conventional flow timed per cell.
    let mut truth = BTreeMap::new();
    let mut conventional = BTreeMap::new();
    for cell in &evaluated {
        let started = Instant::now();
        let model = conventional_flow(cell, GenerateOptions::default());
        conventional.insert(cell.name().to_string(), started.elapsed().as_secs_f64());
        truth.insert(cell.name().to_string(), model);
    }
    more_setups(&mut setup);
    let accuracy = match check_routes(&routed, &truth) {
        Ok(a) => {
            report.check(
                "routes",
                true,
                format!(
                    "{} routed; simulated routes byte-equal to the conventional flow",
                    routed.len()
                ),
            );
            a
        }
        Err(e) => {
            report.check("routes", false, e);
            0.0
        }
    };
    report.check(
        "all cells routed",
        routed.len() == evaluated.len(),
        format!("{} of {}", routed.len(), evaluated.len()),
    );

    let ms = |v: Vec<f64>| -> Vec<f64> { v.into_iter().map(|s| s * 1e3).collect() };
    let ml_ms = ms(routed.iter().filter(|r| r.ml).map(|r| r.secs).collect());
    let sim_ms = ms(routed.iter().filter(|r| !r.ml).map(|r| r.secs).collect());
    let conv_ml_ms = ms(routed
        .iter()
        .filter(|r| r.ml)
        .map(|r| conventional[&r.name])
        .collect());
    let conv_all_ms = ms(conventional.values().copied().collect());
    let route_s: f64 = routed.iter().map(|r| r.secs).sum();
    report.detail("train_s", train_s, "s", 1);
    report.detail("ml_route_ms_p50", median(&ml_ms), "ms", ml_ms.len());
    if !trained_ml_ms.is_empty() {
        report.detail(
            "ml_route_trained_ms_p50",
            median(&trained_ml_ms),
            "ms",
            trained_ml_ms.len(),
        );
    }
    report.detail("sim_route_ms_p50", median(&sim_ms), "ms", sim_ms.len());
    report.detail(
        "conventional_ms_p50",
        median(&conv_ml_ms),
        "ms",
        conv_ml_ms.len(),
    );
    report.detail(
        "conventional_all_ms_p50",
        median(&conv_all_ms),
        "ms",
        conv_all_ms.len(),
    );
    report.detail("ml_accuracy", accuracy, "ratio", ml_ms.len());
    report.detail("route_s", route_s, "s", routed.len());
    report.detail("corpus_cells", corpus_cells.len() as f64, "count", 1);
    if let Some(p90) = percentile(&ml_ms, 90.0) {
        report.detail("ml_route_ms_p90", p90, "ms", ml_ms.len());
    }
    report.detail(
        "error_rate",
        report.failed as f64 / report.attempted.max(1) as f64,
        "ratio",
        report.attempted as usize,
    );

    let mut values: BTreeMap<&str, (f64, usize)> = BTreeMap::new();
    if !config.trace {
        values.insert("setup_s", (median(&setup), setup.len()));
        values.insert(
            "cells_per_s",
            (routed.len() as f64 / route_s.max(1e-12), routed.len()),
        );
        values.insert(
            "latency_p50_ms",
            (median(&trained_ml_ms), trained_ml_ms.len()),
        );
        values.insert("peak_rss_mb", (peak_rss_mb(), 1));
        report.set_metrics(&END_TO_END, &values);
        return report;
    }

    let busy = spans::busy_by_name(&traced);
    let get = |k: &str| busy.get(k).copied().unwrap_or(0.0);
    for (metric, span_name) in [
        ("core.activation.busy_s", "core.activation"),
        ("core.canonical.busy_s", "core.canonical"),
        ("core.flow.gate_busy_s", "core.flow.gate"),
        ("core.matrix.encode_busy_s", "core.matrix.encode"),
        ("ml.predict.busy_s", "ml.predict"),
        ("core.flow.sim_route_busy_s", "core.flow.sim_route"),
    ] {
        values.insert(metric, (get(span_name), evaluated.len()));
    }
    crate::layer_counters(&route_delta, &mut values);
    let counter = |d: &ca_obs::Snapshot, k: &str| d.counters.get(k).map_or(0.0, |(_, v)| *v as f64);
    values.insert(
        "ml.forest.fit_busy_s",
        (fit_timer_s(&trained) + fit_timer_s(&route_delta), 1),
    );
    values.insert(
        "ml.forest.trees_fitted",
        (
            counter(&trained, "ca_ml.forest.trees_fitted")
                + counter(&route_delta, "ca_ml.forest.trees_fitted"),
            1,
        ),
    );
    values.insert(
        "ml.forest.fit_rows",
        (fit_rows(&corpus_cells), corpus_cells.len()),
    );
    values.insert(
        "core.flow.ml_share",
        (
            ml_ms.len() as f64 / routed.len().max(1) as f64,
            routed.len(),
        ),
    );
    let (work, attributed) = spans::work_and_attributed(&traced, "bench.wait");
    values.insert(
        "bench.residue_share",
        (1.0 - attributed / work.max(1e-12), evaluated.len()),
    );
    values.insert(
        "bench.trace_overhead",
        (
            traced_ml.iter().sum::<f64>() / composite_ml.iter().sum::<f64>().max(1e-12) - 1.0,
            traced_ml.len(),
        ),
    );
    crate::write_spans(config, "hybrid", &traced);
    report.set_metrics(&PER_LAYER, &values);
    report
}
