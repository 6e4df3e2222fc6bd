//! `serve_mix`: a build system calling the tuning daemon. An in-process
//! `respec_serve::Server` (one tune worker, fresh persistent cache) serves
//! a closed loop of client connections with zero think time, each sending
//! seeded zipf-by-popularity `tune` requests over `port`'s (app, target)
//! keys through the TCP wire protocol.

use std::collections::{HashMap, HashSet};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use respec_rodinia::{all_apps_sized, Workload};
use respec_serve::{Json, ServeConfig, Server};

use crate::port::TARGETS;
use crate::rec::Rec;
use crate::util::{percentile, Rng};
use crate::Phase;

pub const CLIENTS: usize = 2;
pub const WORKERS: usize = 1;
/// Zipf exponent of key popularity.
const ZIPF: f64 = 1.0;
/// Requests per epoch of the request stream (see [`request_stream`]).
const EPOCH: usize = 500;
/// Epochs generated; a run that exhausts them starts over.
const EPOCHS: usize = 8;
/// Coarsening totals each request searches. A smaller ladder than `port`'s
/// keeps all 45 cold tunes to a third of a run, so warm requests still
/// make up most of it.
const TOTALS: &str = "[1,2]";
/// Where each run's fresh persistent cache lives, inside the checkout.
const CACHE_ROOT: &str = ".perfbench_tmp";

pub struct Ctx {
    server: Option<Server>,
    cache_dir: PathBuf,
    keys: Vec<(String, &'static str)>,
}

pub fn setup() -> Ctx {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let cache_dir = PathBuf::from(CACHE_ROOT).join(format!("serve-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let server = Server::start(ServeConfig {
        workers: WORKERS,
        cache_dir: Some(cache_dir.clone()),
        workload: Workload::Small,
        ..ServeConfig::default()
    })
    .expect("server starts");
    let keys = all_apps_sized(Workload::Small)
        .iter()
        .flat_map(|app| TARGETS.iter().map(|t| (app.name().to_string(), *t)))
        .collect();
    Ctx {
        server: Some(server),
        cache_dir,
        keys,
    }
}

impl Drop for Ctx {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
            server.join();
        }
        let _ = std::fs::remove_dir_all(&self.cache_dir);
        let _ = std::fs::remove_dir(CACHE_ROOT);
    }
}

/// One answered request, as the client saw it.
struct Sample {
    warm: bool,
    latency_ms: f64,
    queue_ms: f64,
    tune_ms: f64,
    coalesced: bool,
    /// Completion sequence number of the tune that answered it.
    seq: u64,
    persistent_hits: u64,
    persistent_misses: u64,
    replay: bool,
}

/// Per-run shared client state: the first answer per key, and failures.
#[derive(Default)]
struct Shared {
    first: HashMap<usize, (String, String)>,
    samples: Vec<Sample>,
    done_s: Vec<f64>,
    attempted: u64,
    failed: u64,
    rejected: u64,
}

pub fn measure(ctx: &Ctx, seed: u64, seconds: f64, rec: &Rec) -> Phase {
    let addr = ctx.server.as_ref().expect("server running").addr();
    let requests = request_stream(ctx.keys.len(), seed);
    let next = AtomicUsize::new(0);
    let shared = Mutex::new(Shared::default());
    let start = Instant::now();
    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            let (shared, requests, next) = (&shared, &requests, &next);
            scope.spawn(move || {
                let _root = rec.span("root:client");
                let stream = TcpStream::connect(addr).expect("connect");
                stream.set_nodelay(true).expect("nodelay");
                let mut writer = stream.try_clone().expect("clone stream");
                let mut reader = BufReader::new(stream);
                let mut line = String::new();
                while start.elapsed().as_secs_f64() < seconds {
                    let _s = rec.span("serve.request");
                    let id = next.fetch_add(1, Ordering::Relaxed);
                    let key = requests[id % requests.len()];
                    let (app, target) = &ctx.keys[key];
                    let request = format!(
                        "{{\"op\":\"tune\",\"id\":\"{id}\",\"client\":\"c{client}\",\
                         \"app\":\"{app}\",\"target\":\"{target}\",\"totals\":{TOTALS}}}\n"
                    );
                    let warm = shared.lock().expect("lock").first.contains_key(&key);
                    let sent = Instant::now();
                    writer.write_all(request.as_bytes()).expect("send request");
                    line.clear();
                    reader.read_line(&mut line).expect("read response");
                    let latency_ms = sent.elapsed().as_secs_f64() * 1e3;
                    let mut shared = shared.lock().expect("lock");
                    shared.attempted += 1;
                    shared.done_s.push(start.elapsed().as_secs_f64());
                    match check_response(&line, key, &mut shared.first) {
                        Ok(mut sample) => {
                            sample.warm = warm;
                            sample.latency_ms = latency_ms;
                            shared.samples.push(sample);
                        }
                        Err(Failure::Rejected(e)) => {
                            shared.failed += 1;
                            shared.rejected += 1;
                            eprintln!("serve rejected: {e}");
                        }
                        Err(Failure::Wrong(e)) => {
                            shared.failed += 1;
                            eprintln!("serve failure: {app}@{target}: {e}");
                        }
                    }
                }
            });
        }
    });
    let elapsed_s = start.elapsed().as_secs_f64();
    let shared = shared.into_inner().expect("lock");
    summarize(shared, elapsed_s)
}

fn summarize(shared: Shared, elapsed_s: f64) -> Phase {
    let samples = &shared.samples;
    let pick = |warm: bool, f: fn(&Sample) -> f64| -> Vec<f64> {
        samples.iter().filter(|s| s.warm == warm).map(f).collect()
    };
    let warm_ms = pick(true, |s| s.latency_ms);
    let cold_ms = pick(false, |s| s.latency_ms);
    // A coalesced request's queue and tune times belong to the request
    // that started the tune, so only the others split cleanly.
    let wire_ms: Vec<f64> = samples
        .iter()
        .filter(|s| !s.coalesced)
        .map(|s| s.latency_ms - s.queue_ms - s.tune_ms)
        .collect();
    let warm_queue_ms = pick(true, |s| s.queue_ms);
    // One executed tune answers every request coalesced onto it; count its
    // cache traffic once.
    let mut tunes = HashSet::new();
    let (mut hits, mut misses, mut replays) = (0u64, 0u64, 0u64);
    let mut busy_ms = 0.0;
    for s in samples.iter().filter(|s| tunes.insert(s.seq)) {
        busy_ms += s.tune_ms;
        hits += s.persistent_hits;
        misses += s.persistent_misses;
        replays += u64::from(s.replay);
    }
    let n = samples.len().max(1) as f64;
    let mut phase = Phase {
        attempted: shared.attempted,
        failed: shared.failed,
        elapsed_s,
        done_s: shared.done_s,
        job_ms: warm_ms,
        ..Phase::default()
    };
    phase.layer.extend([
        ("serve.cold_ms_p50", percentile(&cold_ms, 0.5)),
        ("serve.queue_ms_p50", percentile(&warm_queue_ms, 0.5)),
        ("serve.queue_ms_p99", percentile(&warm_queue_ms, 0.99)),
        (
            "serve.tune_ms_p50",
            percentile(&samples.iter().map(|s| s.tune_ms).collect::<Vec<_>>(), 0.5),
        ),
        ("serve.wire_ms_p50", percentile(&wire_ms, 0.5)),
        ("serve.wire_ms_p99", percentile(&wire_ms, 0.99)),
        (
            "serve.coalesced_ratio",
            samples.iter().filter(|s| s.coalesced).count() as f64 / n,
        ),
        ("serve.rejected", shared.rejected as f64),
        (
            "cache.hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
        ),
        ("cache.replays", replays as f64),
    ]);
    phase
        .notes
        .push(("warm_samples", phase.job_ms.len().to_string()));
    phase
        .notes
        .push(("cold_samples", cold_ms.len().to_string()));
    phase
        .notes
        .push(("wire_samples", wire_ms.len().to_string()));
    phase
        .notes
        .push(("executed_tunes", tunes.len().to_string()));
    phase
        .notes
        .push(("server_busy_s", format!("{:.3}", busy_ms / 1e3)));
    phase.notes.push((
        "cold_busy_s",
        format!(
            "{:.3}",
            pick(false, |s| s.tune_ms).iter().sum::<f64>() / 1e3
        ),
    ));
    phase
}

enum Failure {
    /// An error or rejected response.
    Rejected(String),
    /// A response whose answer differs from the first one for its key.
    Wrong(String),
}

/// Parses one tune response and checks it against the first answer this
/// run received for the same key.
fn check_response(
    line: &str,
    key: usize,
    first: &mut HashMap<usize, (String, String)>,
) -> Result<Sample, Failure> {
    let json = Json::parse(line.trim()).map_err(|e| Failure::Wrong(format!("bad json: {e}")))?;
    if json.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(Failure::Rejected(line.trim().to_string()));
    }
    let text = |k: &str| json.get(k).and_then(Json::as_str).unwrap_or("").to_string();
    let num = |k: &str| json.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    let answer = (text("winner_hash"), text("seconds_bits"));
    match first.get(&key) {
        Some(expected) if *expected != answer => {
            return Err(Failure::Wrong(format!(
                "answer {answer:?} differs from the first {expected:?}"
            )));
        }
        Some(_) => {}
        None => {
            first.insert(key, answer);
        }
    }
    Ok(Sample {
        warm: false,
        latency_ms: 0.0,
        queue_ms: num("queue_ms"),
        tune_ms: num("tune_ms"),
        coalesced: json.get("coalesced").and_then(Json::as_bool) == Some(true),
        seq: num("seq") as u64,
        persistent_hits: num("persistent_hits") as u64,
        persistent_misses: num("persistent_misses") as u64,
        replay: num("persistent_hits") > 0.0 && num("compiles") == 0.0,
    })
}

/// The keys both clients take turns to request, in order. Popularity
/// follows key order (registry app order × `port`'s targets); each epoch
/// holds every key `ceil(EPOCH × zipf weight)` times in a seeded shuffle. So
/// every run makes the same requests and tunes each key cold once, in its
/// first epoch; the seed decides the order, which is when each key first
/// turns up and what it queues behind.
fn request_stream(keys: usize, seed: u64) -> Vec<usize> {
    let mut rng = Rng::new(seed, 3);
    let weights: Vec<f64> = (1..=keys).map(|r| (r as f64).powf(-ZIPF)).collect();
    let total: f64 = weights.iter().sum();
    let mut stream = Vec::new();
    for _ in 0..EPOCHS {
        let mut epoch: Vec<usize> = weights
            .iter()
            .enumerate()
            .flat_map(|(key, w)| {
                std::iter::repeat_n(key, (EPOCH as f64 * w / total).ceil() as usize)
            })
            .collect();
        rng.shuffle(&mut epoch);
        stream.extend(epoch);
    }
    stream
}

#[cfg(test)]
mod tests {
    use super::*;

    const OK: &str = r#"{"ok":true,"op":"tune","winner_hash":"00000000000000aa","seconds_bits":"3f50000000000000","queue_ms":0.5,"tune_ms":1.5,"seq":3,"persistent_hits":1,"persistent_misses":0,"compiles":0,"coalesced":false}"#;

    #[test]
    fn perturbed_warm_answer_is_a_failure() {
        let mut first = HashMap::new();
        assert!(check_response(OK, 7, &mut first).is_ok());
        assert!(check_response(OK, 7, &mut first).is_ok());
        let perturbed = OK.replace("3f50000000000000", "3f50000000000001");
        assert!(matches!(
            check_response(&perturbed, 7, &mut first),
            Err(Failure::Wrong(_))
        ));
        let rejected = r#"{"ok":false,"op":"tune","error":"overloaded"}"#;
        assert!(matches!(
            check_response(rejected, 7, &mut first),
            Err(Failure::Rejected(_))
        ));
    }
}
