//! Tiny runs of every workload, and proof that each correctness check
//! rejects a corrupted output.

use ca_core::conventional_flow;
use ca_defects::{to_cam, GenerateOptions};
use ca_perfbench::{
    campaign, hybrid, serve, Config, Report, Size, END_TO_END, PER_LAYER, WORKLOADS,
};
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Span recording is process-global: traced runs must not overlap.
static SERIAL: Mutex<()> = Mutex::new(());

fn config(name: &str, trace: bool) -> Config {
    let work_dir = std::env::temp_dir().join(format!(
        "ca-perfbench-test-{name}-{trace}-{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&work_dir).expect("scratch dir");
    Config {
        seed: 7,
        seconds: 0.2,
        trace,
        size: Size::Tiny,
        threads: 2,
        work_dir,
    }
}

fn run(workload: &str, trace: bool) -> Report {
    let _guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let config = config(workload, trace);
    let report = ca_perfbench::run(workload, &config).expect("known workload");
    let _ = std::fs::remove_dir_all(&config.work_dir);
    report
}

/// Flips one byte of `body` in place of its first digit.
fn corrupt(body: &str) -> String {
    let at = body
        .find(|c: char| c.is_ascii_digit())
        .expect("a digit to flip");
    let mut bytes = body.as_bytes().to_vec();
    bytes[at] = if bytes[at] == b'0' { b'1' } else { b'0' };
    String::from_utf8(bytes).expect("ascii edit")
}

fn assert_prints_all(report: &Report, names: &[(&str, &str)]) {
    assert!(report.correct(), "{}", report.render());
    let json = report.to_json();
    let doc = ca_obs::json::parse(&json).expect("result line is JSON");
    let metrics = doc
        .get("metrics")
        .and_then(|m| m.as_object())
        .expect("metrics object");
    assert_eq!(metrics.len(), names.len(), "{json}");
    let rendered = report.render();
    for (name, unit) in names {
        let m = metrics
            .get(*name)
            .unwrap_or_else(|| panic!("{name} missing from {json}"));
        assert_eq!(
            m.get("unit").and_then(|u| u.as_str()),
            Some(*unit),
            "{name}"
        );
        let value = m
            .get("value")
            .and_then(|v| v.as_f64())
            .expect("numeric value");
        assert!(value.is_finite(), "{name} = {value}");
        assert!(
            rendered.contains(&format!("metric {name} = ")),
            "{name} not rendered"
        );
    }
    assert!(doc.get("attempted").and_then(|v| v.as_f64()).unwrap_or(0.0) >= 1.0);
    assert_eq!(doc.get("failed").and_then(|v| v.as_f64()), Some(0.0));
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    for workload in WORKLOADS {
        let untraced = run(workload, false);
        assert_prints_all(&untraced, &END_TO_END);
        for m in &untraced.metrics {
            assert!(
                m.value > 0.0,
                "{workload}: end-to-end {} is {}",
                m.name,
                m.value
            );
        }
        let traced = run(workload, true);
        assert_prints_all(&traced, &PER_LAYER);
        let residue = traced
            .metrics
            .iter()
            .find(|m| m.name == "bench.residue_share")
            .expect("residue");
        assert!(
            (0.0..=1.0).contains(&residue.value),
            "{workload}: residue {}",
            residue.value
        );
    }
}

#[test]
fn campaign_check_rejects_one_flipped_cam_byte() {
    let exec = ca_core::Executor::with_threads(2);
    let lib = campaign::library(Size::Tiny, 3);
    let reference = campaign::reference(&lib, &exec);
    let dir = config("campaign-corrupt", false).work_dir;
    let (_, mut exports, failed) = campaign::composite_pass(&lib, &exec, &dir);
    assert_eq!(failed, 0);
    assert_eq!(campaign::check_exports(&reference, &exports), Ok(()));
    exports[2].1 = corrupt(&exports[2].1);
    assert!(campaign::check_exports(&reference, &exports).is_err());
    assert!(campaign::check_exports(&reference, &exports[1..]).is_err());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn hybrid_check_rejects_a_wrong_simulated_model() {
    let lib = ca_netlist::generate_library(&ca_netlist::LibraryConfig::quick(
        ca_netlist::Technology::C40,
    ));
    let cell = &lib.cells[0].cell;
    let model = conventional_flow(cell, GenerateOptions::default());
    let truth: BTreeMap<String, _> = [(cell.name().to_string(), model.clone())].into();
    let mut routed = vec![hybrid::Routed {
        name: cell.name().to_string(),
        ml: false,
        secs: 0.001,
        cam: to_cam(&model),
        model: model.clone(),
    }];
    assert!(hybrid::check_routes(&routed, &truth).is_ok());
    routed[0].cam = corrupt(&routed[0].cam);
    assert!(hybrid::check_routes(&routed, &truth).is_err());
    // An ML route is scored, not byte-checked: a perfect prediction
    // scores 1.
    routed[0].ml = true;
    assert_eq!(hybrid::check_routes(&routed, &truth), Ok(1.0));
}

#[test]
fn serve_check_rejects_a_wrong_served_or_looked_up_model() {
    let exec = ca_core::Executor::with_threads(2);
    let inputs = serve::inputs(Size::Tiny);
    let ops = serve::schedule(5, 40, 1000.0, &inputs);
    let golden = serve::Golden::compute(&inputs, &[&ops], &exec);
    let sample = |kind| serve::Sample {
        kind,
        latency_ms: 1.0,
        late_ms: 0.0,
        timing: Default::default(),
        result: Ok(golden.expected(kind).expect("golden body").clone()),
        frame_bytes: 0,
    };
    for kind in [
        serve::OpKind::Name(1),
        serve::OpKind::Lookup(0),
        serve::OpKind::Spice(0),
    ] {
        let mut samples = vec![sample(serve::OpKind::Name(0)), sample(kind)];
        assert_eq!(serve::check_samples(&samples, &golden), Ok(()));
        let body = samples[1].result.clone().expect("ok");
        samples[1].result = Ok(corrupt(&body));
        assert!(serve::check_samples(&samples, &golden).is_err(), "{kind:?}");
    }
}

#[test]
fn cli_prints_one_json_line_and_rejects_bad_arguments() {
    let bin = env!("CARGO_BIN_EXE_ca-perfbench");
    let dir = config("cli", false).work_dir;
    let out = std::process::Command::new(bin)
        .args([
            "--workload",
            "campaign",
            "--seed",
            "2",
            "--seconds",
            "0.1",
            "--trace",
            "0",
            "--size",
            "tiny",
        ])
        .current_dir(&dir)
        .output()
        .expect("run the binary");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    let last = stdout.lines().last().expect("a result line");
    let doc = ca_obs::json::parse(last).expect("last line is JSON");
    assert_eq!(doc.get("correct"), Some(&ca_obs::JsonValue::Bool(true)));
    let bad = std::process::Command::new(bin)
        .args(["--workload", "nope", "--seed", "2"])
        .current_dir(&dir)
        .output()
        .expect("run the binary");
    assert_eq!(bad.status.code(), Some(2));
    assert!(bad.stdout.is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}
