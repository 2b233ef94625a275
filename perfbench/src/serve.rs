//! The serving-layer probe: the characterization service under an
//! open-loop load, measured at the end of a traced `campaign` run.
//!
//! An in-process `ca_serve::Server` on a Unix-domain socket serves the
//! campaign's library from a fresh store, with as many execution slots
//! as the benchmark has threads. The load generator has one connection
//! per thread and sends a seeded op sequence on a seeded Poisson
//! schedule regardless of completions; each request is timed from the
//! moment it was due, and the generator's own lateness is reported.
//!
//! The op mix: 60% `characterize` by name (Zipf over library order;
//! repeats resolve through the donor cache), 30% `lookup` of the most
//! popular cells (a read beside the writes), 10% `characterize` of
//! Soi28 cells sent as SPICE text (parse and lint on the request path,
//! larger frames). Set-up characterizes each phase's working set once,
//! so first touches — cold simulation and a journal fsync — are set-up
//! work and the phase measures a server in steady state. Every served
//! body is compared with a reference characterized in the same process,
//! never timed.

use crate::report::Report;
use crate::spans::{self, span};
use crate::stats::{median, percentile, tail};
use crate::{fresh_dir, Config, Size};
use ca_bench::Profile;
use ca_core::Executor;
use ca_netlist::library::{generate_library, Library};
use ca_netlist::{lint, spice, writer, Technology};
use ca_obs::Snapshot;
use ca_rng::{Rng, Xoshiro256StarStar};
use ca_serve::protocol::{self, Request, Response, Target, Timing};
use ca_serve::server::{Endpoint, ServeConfig, Server};
use ca_store::frame;
use std::collections::{BTreeMap, BTreeSet};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The probe's rate, requests per second.
pub const REFERENCE_RPS: f64 = 50.0;
/// Requests of the unmeasured phase that pays the process's warm-up.
const WARM_UP_OPS: usize = 200;
/// Zipf exponent of name popularity.
const ZIPF_S: f64 = 1.0;
/// Most popular cells, characterized during set-up; lookups read them.
const WARM: usize = 16;

/// What one request does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// `characterize` of library cell `i` by name.
    Name(usize),
    /// `lookup` of warm cell `i`.
    Lookup(usize),
    /// `characterize` of SPICE netlist `i`.
    Spice(usize),
}

/// One scheduled request: due `due_s` seconds after the phase starts.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    pub due_s: f64,
    pub kind: OpKind,
}

/// The served library and the SPICE texts, with their references.
pub struct Inputs {
    pub library: Library,
    pub spice: Vec<String>,
}

pub fn inputs(size: Size) -> Inputs {
    let mut library = ca_bench::perf::bench_library(match size {
        Size::Full => Profile::Full,
        Size::Tiny => Profile::Quick,
    });
    let mut soi = generate_library(
        &match size {
            Size::Full => Profile::Full,
            Size::Tiny => Profile::Quick,
        }
        .library_config(Technology::Soi28),
    );
    if size == Size::Tiny {
        library.cells.truncate(24);
        soi.cells.truncate(6);
    }
    let spice = soi
        .cells
        .iter()
        .map(|lc| writer::to_spice(&lc.cell))
        .collect();
    Inputs { library, spice }
}

fn zipf_cdf(n: usize) -> Vec<f64> {
    let mut acc = 0.0;
    let mut cdf: Vec<f64> = (0..n)
        .map(|k| {
            acc += 1.0 / ((k + 1) as f64).powf(ZIPF_S);
            acc
        })
        .collect();
    for c in &mut cdf {
        *c /= acc;
    }
    cdf
}

fn draw(cdf: &[f64], rng: &mut Xoshiro256StarStar) -> usize {
    let u = rng.gen_f64();
    cdf.partition_point(|&c| c < u).min(cdf.len() - 1)
}

/// Fixed seed of the op multiset, so every run seed does the same
/// work: the run seed orders and times it.
const MIX_SEED: u64 = 0xCA11_AB1E;

/// The op sequence and arrival schedule of one phase: a fixed multiset
/// of `n` ops, shuffled by `seed`, at `rate` per second with seeded
/// Poisson arrivals.
pub fn schedule(seed: u64, n: usize, rate: f64, inputs: &Inputs) -> Vec<Op> {
    let mut mix = Xoshiro256StarStar::seed_from_u64(MIX_SEED ^ n as u64);
    let names = zipf_cdf(inputs.library.len());
    let spice = zipf_cdf(inputs.spice.len());
    let warm = WARM.min(inputs.library.len());
    let mut kinds: Vec<OpKind> = (0..n)
        .map(|_| {
            let u = mix.gen_f64();
            if u < 0.6 {
                OpKind::Name(draw(&names, &mut mix))
            } else if u < 0.9 {
                OpKind::Lookup(mix.gen_index(warm))
            } else {
                OpKind::Spice(draw(&spice, &mut mix))
            }
        })
        .collect();
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    rng.shuffle(&mut kinds);
    let mut t = 0.0;
    kinds
        .into_iter()
        .map(|kind| {
            t += -(1.0 - rng.gen_f64()).ln() / rate;
            Op { due_s: t, kind }
        })
        .collect()
}

/// Reference bodies: library cell index / SPICE index → `.cam` body.
#[derive(Debug, Default, Clone)]
pub struct Golden {
    pub names: BTreeMap<usize, String>,
    pub spice: BTreeMap<usize, String>,
}

impl Golden {
    /// Characterizes every cell the schedules touch, uncached.
    pub fn compute(inputs: &Inputs, schedules: &[&[Op]], exec: &Executor) -> Golden {
        let mut names: BTreeSet<usize> = (0..WARM.min(inputs.library.len())).collect();
        let mut spice = BTreeSet::new();
        for op in schedules.iter().flat_map(|s| s.iter()) {
            match op.kind {
                OpKind::Name(i) => {
                    names.insert(i);
                }
                OpKind::Spice(i) => {
                    spice.insert(i);
                }
                OpKind::Lookup(_) => {}
            }
        }
        let names: Vec<usize> = names.into_iter().collect();
        let spice: Vec<usize> = spice.into_iter().collect();
        let name_bodies = exec.map(&names, |_, &i| {
            crate::reference_cam(inputs.library.cells[i].cell.clone())
        });
        let spice_bodies = exec.map(&spice, |_, &i| {
            spice::parse_cell(&inputs.spice[i])
                .map(crate::reference_cam)
                .unwrap_or_default()
        });
        Golden {
            names: names.into_iter().zip(name_bodies).collect(),
            spice: spice.into_iter().zip(spice_bodies).collect(),
        }
    }

    /// The body `kind` must be answered with.
    pub fn expected(&self, kind: OpKind) -> Option<&String> {
        match kind {
            OpKind::Name(i) | OpKind::Lookup(i) => self.names.get(&i),
            OpKind::Spice(i) => self.spice.get(&i),
        }
    }
}

/// Outcome of one request.
#[derive(Debug, Clone)]
pub struct Sample {
    pub kind: OpKind,
    /// From due time to response, ms; infinite when the request failed.
    pub latency_ms: f64,
    /// Send time minus due time, ms.
    pub late_ms: f64,
    pub timing: Timing,
    /// Served body, or the failure.
    pub result: Result<String, String>,
    pub frame_bytes: u64,
}

/// Checks every served body against the reference; `Err` names the
/// first mismatch.
pub fn check_samples(samples: &[Sample], golden: &Golden) -> Result<(), String> {
    for (i, s) in samples.iter().enumerate() {
        if let Ok(body) = &s.result {
            match golden.expected(s.kind) {
                Some(want) if want == body => {}
                _ => {
                    return Err(format!(
                        "request {i} ({:?}) served a body unlike the reference",
                        s.kind
                    ))
                }
            }
        }
    }
    Ok(())
}

fn request_for(kind: OpKind, inputs: &Inputs, client: &str) -> Request {
    match kind {
        OpKind::Name(i) => Request::Characterize {
            client: client.to_string(),
            deadline_ms: 0,
            target: Target::Name(inputs.library.cells[i].cell.name().to_string()),
            trace: None,
        },
        OpKind::Lookup(i) => Request::Lookup {
            name: inputs.library.cells[i].cell.name().to_string(),
        },
        OpKind::Spice(i) => Request::Characterize {
            client: client.to_string(),
            deadline_ms: 0,
            target: Target::Spice(inputs.spice[i].clone()),
            trace: None,
        },
    }
}

/// One request over a raw connection, encode and decode inside
/// `serve.codec` spans. Returns the response and the frame bytes.
fn call(stream: &mut UnixStream, request: &Request, key: u64) -> Result<(Response, u64), String> {
    let payload = {
        let _s = span("serve.codec", key);
        protocol::encode_request(request)
    };
    frame::write_frame(stream, &payload, protocol::MAX_REQUEST_PAYLOAD)
        .map_err(|e| e.to_string())?;
    let reply = frame::read_frame(stream, protocol::MAX_RESPONSE_PAYLOAD)
        .map_err(|e| e.to_string())?
        .ok_or("server closed the connection")?;
    let _s = span("serve.codec", key);
    let response = protocol::decode_response(&reply).map_err(|e| e.to_string())?;
    Ok((response, (payload.len() + reply.len()) as u64))
}

/// Drives `ops` over `connections` connections; each connection sends
/// its next op when it is due, or at once if it is already late.
pub fn drive(socket: &Path, ops: &[Op], inputs: &Inputs, connections: usize) -> Vec<Sample> {
    let next = AtomicUsize::new(0);
    let results = Mutex::new(vec![None; ops.len()]);
    let start = Instant::now() + Duration::from_millis(5);
    std::thread::scope(|scope| {
        for c in 0..connections {
            let (next, results) = (&next, &results);
            scope.spawn(move || {
                let mut stream = UnixStream::connect(socket)
                    .unwrap_or_else(|e| panic!("connect {}: {e}", socket.display()));
                let client = format!("bench-{c}");
                loop {
                    let i = next.fetch_add(1, Ordering::SeqCst);
                    let Some(op) = ops.get(i) else { break };
                    let due = start + Duration::from_secs_f64(op.due_s);
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    let sent = Instant::now();
                    let request = request_for(op.kind, inputs, &client);
                    let outcome = {
                        let _item = span("bench.request", i as u64);
                        call(&mut stream, &request, i as u64)
                    };
                    let done = Instant::now();
                    let (result, timing, frame_bytes) = match outcome {
                        Ok((Response::Model { cam, timing, .. }, bytes)) => {
                            (Ok(cam), timing, bytes)
                        }
                        Ok((other, bytes)) => (Err(format!("{other:?}")), Timing::default(), bytes),
                        Err(e) => (Err(e), Timing::default(), 0),
                    };
                    if let (OpKind::Spice(j), Ok(_)) = (op.kind, &result) {
                        replay_parse(&inputs.spice[j], i as u64);
                    }
                    let latency_ms = if result.is_ok() {
                        done.saturating_duration_since(due).as_secs_f64() * 1e3
                    } else {
                        f64::INFINITY
                    };
                    let sample = Sample {
                        kind: op.kind,
                        latency_ms,
                        late_ms: sent.saturating_duration_since(due).as_secs_f64() * 1e3,
                        timing,
                        result,
                        frame_bytes,
                    };
                    results.lock().expect("results lock")[i] = Some(sample);
                }
            });
        }
    });
    results
        .into_inner()
        .expect("results lock")
        .into_iter()
        .map(|s| s.expect("every op ran"))
        .collect()
}

/// The server's request-path parse and lint of a SPICE op, replayed
/// on the same bytes after the response so the layer has a busy time;
/// only recorded in traced phases.
fn replay_parse(text: &str, key: u64) {
    if !spans::enabled() {
        return;
    }
    let cell = {
        let _s = span("netlist.parse", key);
        spice::parse_cell(text)
    };
    if let Ok(cell) = cell {
        let _s = span("netlist.lint", key);
        std::hint::black_box(lint(&cell));
    }
}

/// Starts a server on a fresh store and brings it to `ops`' working
/// set: every cell the ops name or send as SPICE, and the lookup cells,
/// is characterized once over the phase's connections. First touches —
/// cold simulation and a journal append with fsync each — are set-up
/// work, so the timed phase measures a server in steady state. Returns
/// the server and the warm-up requests.
fn start(b: &Bench, ops: &[Op]) -> (Server, Vec<Sample>) {
    let _ = std::fs::remove_file(b.dir.join("serve.caj"));
    let mut config = ServeConfig::new(b.dir.join("serve.caj"), b.inputs.library.clone());
    config.admission.slots = b.threads;
    let server = Server::start(config, &[Endpoint::Uds(b.dir.join("serve.sock"))])
        .unwrap_or_else(|e| panic!("server failed to start: {e}"));
    let mut working_set: BTreeSet<(bool, usize)> = (0..WARM.min(b.inputs.library.len()))
        .map(|i| (false, i))
        .collect();
    for op in ops {
        working_set.insert(match op.kind {
            OpKind::Name(i) | OpKind::Lookup(i) => (false, i),
            OpKind::Spice(i) => (true, i),
        });
    }
    let warm_ops: Vec<Op> = working_set
        .into_iter()
        .map(|(spice, i)| Op {
            due_s: 0.0,
            kind: if spice {
                OpKind::Spice(i)
            } else {
                OpKind::Name(i)
            },
        })
        .collect();
    let warm = drive(&socket(&server, b.dir), &warm_ops, b.inputs, b.threads);
    (server, warm)
}

fn socket(server: &Server, dir: &Path) -> std::path::PathBuf {
    server
        .uds_path()
        .cloned()
        .unwrap_or_else(|| dir.join("serve.sock"))
}

/// The samples of one phase, with its counter deltas and spans.
struct Phase {
    samples: Vec<Sample>,
    counters: Snapshot,
    spans: Vec<spans::SpanRecord>,
}

impl Phase {
    fn failed(&self) -> usize {
        self.samples.iter().filter(|s| s.result.is_err()).count()
    }
}

/// What every phase of a probe shares.
struct Bench<'a> {
    inputs: &'a Inputs,
    golden: &'a Golden,
    dir: &'a Path,
    threads: usize,
}

/// One phase on a fresh server; its bodies are checked into `report`
/// under `what`.
fn run_phase(b: &Bench, ops: &[Op], traced: bool, report: &mut Report, what: &str) -> Phase {
    let (server, warm) = start(b, ops);
    let warm_failed = warm.iter().filter(|s| s.result.is_err()).count();
    if let Err(e) = check_samples(&warm, b.golden).and_then(|()| {
        (warm_failed == 0)
            .then_some(())
            .ok_or(format!("{warm_failed} warm-up requests failed"))
    }) {
        report.check("warm-up", false, e);
    }
    let before = ca_obs::global().snapshot();
    spans::set_enabled(traced);
    let samples = drive(&socket(&server, b.dir), ops, b.inputs, b.threads);
    spans::set_enabled(false);
    let counters = ca_obs::global().snapshot().delta(&before);
    server.shutdown();
    let phase = Phase {
        samples,
        counters,
        spans: spans::take(),
    };
    report.attempted += ops.len() as u64;
    report.failed += phase.failed() as u64;
    match check_samples(&phase.samples, b.golden) {
        Err(e) => report.check(what, false, e),
        Ok(()) => report.check(
            what,
            true,
            "served and looked-up bodies equal the reference",
        ),
    }
    phase
}

/// The serving layers, measured on a traced probe: `ops` requests of
/// the seed's schedule at [`REFERENCE_RPS`] against a warm server,
/// after an unmeasured phase that pays the process's own warm-up. Fills
/// the `serve.*` layer metrics, the generator's lateness tail and the
/// replayed SPICE parse time.
pub fn layer_probe(
    config: &Config,
    ops: usize,
    report: &mut Report,
    values: &mut BTreeMap<&'static str, (f64, usize)>,
) {
    let exec = Executor::with_threads(config.threads);
    let dir = fresh_dir(config, "serve");
    let inputs = inputs(config.size);
    let reference = schedule(config.seed, ops, REFERENCE_RPS, &inputs);
    let golden = Golden::compute(&inputs, &[&reference], &exec);
    let bench = Bench {
        inputs: &inputs,
        golden: &golden,
        dir: &dir,
        threads: config.threads,
    };
    let warm_up = &reference[..reference.len().min(WARM_UP_OPS)];
    run_phase(&bench, warm_up, false, report, "probe warm-up phase");
    let traced = run_phase(&bench, &reference, true, report, "probe phase");
    let n = traced.samples.len();
    let busy = spans::busy_by_name(&traced.spans);
    let get = |k: &str| busy.get(k).copied().unwrap_or(0.0);
    values.insert("serve.codec.busy_s", (get("serve.codec"), n));
    values.insert("netlist.parse.busy_s", (get("netlist.parse"), n));
    values.insert(
        "serve.codec.bytes",
        (traced.samples.iter().map(|s| s.frame_bytes as f64).sum(), n),
    );
    let timed: Vec<&Timing> = traced
        .samples
        .iter()
        .filter(|s| s.result.is_ok() && !matches!(s.kind, OpKind::Lookup(_)))
        .map(|s| &s.timing)
        .collect();
    let mean_of = |f: fn(&Timing) -> u64| {
        crate::stats::mean(&timed.iter().map(|t| f(t) as f64).collect::<Vec<_>>())
    };
    values.insert(
        "serve.admission.queue_us",
        (mean_of(|t| t.queue_us), timed.len()),
    );
    values.insert("serve.service_us", (mean_of(|t| t.service_us), timed.len()));
    values.insert("serve.journal_us", (mean_of(|t| t.journal_us), timed.len()));
    let shed = traced
        .counters
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with("ca_serve.shed."))
        .fold(0.0, |acc, (_, (_, v))| acc + *v as f64);
    values.insert("serve.shed", (shed, 1));
    // Tails at the highest percentile with ten samples beyond it: p99
    // once the probe has a thousand requests.
    let ms_tail = |v: &[f64]| tail(v).unwrap_or((100.0, percentile(v, 100.0).unwrap_or(0.0)));
    let late: Vec<f64> = traced.samples.iter().map(|s| s.late_ms).collect();
    let latency: Vec<f64> = traced.samples.iter().map(|s| s.latency_ms).collect();
    let (pct, late_tail) = ms_tail(&late);
    values.insert("bench.generator.late_ms_tail", (late_tail, n));
    report.detail("probe_tail_pct", pct, "%", n);
    report.detail("probe_latency_ms_p50", median(&latency), "ms", n);
    report.detail("probe_latency_ms_tail", ms_tail(&latency).1, "ms", n);
}
