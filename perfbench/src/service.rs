//! The service workloads, measured from outside: the line protocol over
//! loopback TCP against `provsem_server::serve`, an open-loop phase for
//! latency and a closed-loop phase for throughput, then the correctness
//! gates on every logged reply.

use crate::gen::{mix, Command, ServiceWorkload, Workload};
use crate::stats::{fingerprint, median, peak_rss_mb, quantile, Report, Run, ROUNDS};
use provsem_core::prelude::{DbSnapshot, ExecContext};
use provsem_datalog::{kleene_iterate, parse_program, FactStore, DEFAULT_FALLBACK_BOUND};
use provsem_semiring::ring::Integers;
use provsem_server::prelude::*;
use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Share of each round given to the open-loop segment; the rest is the
/// closed loop.
const OPEN_SHARE: f64 = 0.75;
/// `QUERY`/`DATALOG` replies per run (a sample chosen by a hash of the seed
/// and stream position) re-derived by the paper's reference evaluators,
/// which are slow by design: the interpreter takes ~0.6 s on a join of `F`.
const ORACLE_SAMPLE: usize = 6;

/// The open-loop offered rate of each service workload, in requests per
/// second, frozen so later commits are compared at the same load: about a
/// quarter of the closed-loop throughput measured on a shared 2-core
/// x86-64 virtual machine when the benchmark was introduced (serve_read
/// 265/s, serve_write 41/s, serve_datalog 26/s). At half that throughput,
/// that machine's speed swings (up to 1.5x over seconds) pushed the two
/// connections near saturation, and the latency percentiles measured
/// queueing.
pub fn offered_rate(workload: Workload) -> f64 {
    match workload {
        Workload::ServeRead => 66.0,
        Workload::ServeWrite => 10.0,
        Workload::ServeDatalog => 6.5,
        Workload::Provenance => unreachable!("the provenance workload is a closed loop"),
    }
}

/// Builds a service from the generated database, defines the standing
/// views and runs the warm-up reads: the state the measured phases start
/// from. Panics if set-up itself fails (a broken build, not a data point).
pub fn setup(gen: &ServiceWorkload, threads: usize) -> Service<Integers> {
    let service = Service::with_context(gen.database(), ExecContext::with_threads(threads));
    let mut session = service.session();
    for line in gen.view_definitions().iter().chain(&gen.warmup()) {
        let reply = session.handle_line(line).render();
        assert!(
            reply.starts_with("ok "),
            "set-up request {line:?} failed: {reply}"
        );
    }
    service
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Phase {
    Open,
    Closed,
}

/// One request as the client saw it. The request line itself is not kept:
/// it is regenerated from the stream position when the log is replayed.
struct Entry {
    index: u64,
    command: Command,
    phase: Phase,
    /// Open loop: reply time minus scheduled send time. Closed loop: reply
    /// time minus send time.
    latency_ms: f64,
    /// Open loop: send time minus scheduled send time.
    late_ms: f64,
    /// The epoch the reply reported (`None` for a failed request).
    epoch: Option<u64>,
    reply: u128,
}

/// The epoch an `ok` reply reports, or `None` for anything else (an `err`
/// reply, or a reply of the wrong kind for the command).
fn reply_epoch(command: Command, reply: &str) -> Option<u64> {
    let prefix = match command {
        Command::Commit => "ok committed epoch=",
        _ => "ok rows epoch=",
    };
    let rest = reply.strip_prefix(prefix)?;
    rest[..rest.find(' ').unwrap_or(rest.len())].parse().ok()
}

/// How a phase paces its requests.
#[derive(Clone, Copy)]
enum Pace {
    /// `count` positions, position `k` due at `start + k / rate`.
    Open { count: u64, rate: f64 },
    /// Each connection sends as soon as its last reply is in, until `end`.
    Closed { end: Instant },
}

/// Drives `clients`, one thread each, through consecutive stream positions
/// from `first`, paced by `pace`. Returns the log and the first position no
/// connection took.
fn drive(
    addr: std::net::SocketAddr,
    gen: &ServiceWorkload,
    clients: &mut [Client],
    first: u64,
    pace: Pace,
) -> (Vec<Entry>, u64) {
    let next = AtomicU64::new(first);
    let log = Mutex::new(Vec::new());
    let start = Instant::now() + Duration::from_millis(20);
    std::thread::scope(|scope| {
        for client in clients.iter_mut() {
            let (next, log) = (&next, &log);
            scope.spawn(move || {
                let mut entries = Vec::new();
                loop {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    let k = index - first;
                    let due = match pace {
                        Pace::Open { count, .. } if k >= count => break,
                        Pace::Open { rate, .. } => start + Duration::from_secs_f64(k as f64 / rate),
                        Pace::Closed { end } if Instant::now() >= end => break,
                        Pace::Closed { .. } => Instant::now(),
                    };
                    let line = gen.request(index);
                    if let Some(wait) = due.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    let sent = Instant::now();
                    let command = Command::of(&line);
                    let result = client.request(&line);
                    let done = Instant::now();
                    let (epoch, reply) = match &result {
                        Ok(reply) => (reply_epoch(command, reply), fingerprint(reply)),
                        Err(_) => (None, 0),
                    };
                    entries.push(Entry {
                        index,
                        command,
                        phase: match pace {
                            Pace::Open { .. } => Phase::Open,
                            Pace::Closed { .. } => Phase::Closed,
                        },
                        latency_ms: (done - due).as_secs_f64() * 1e3,
                        late_ms: (sent - due).as_secs_f64() * 1e3,
                        epoch,
                        reply,
                    });
                    if result.is_err() {
                        // A dropped connection: the failure is logged; the
                        // next request goes out on a fresh connection.
                        match Client::connect(addr) {
                            Ok(fresh) => *client = fresh,
                            Err(_) => break,
                        }
                    }
                }
                log.lock().expect("log lock").extend(entries);
            });
        }
    });
    // Each connection drew one position it did not send.
    (log.into_inner().expect("log lock"), next.into_inner())
}

/// Runs the measured phases against `live`, in `ROUNDS` rounds with
/// `between_rounds` called between them while no request is in flight,
/// then gates every reply against a replay on a twin service. Peak memory
/// is read as the measured phases end (before the gate's own); `live` is
/// dropped and the twin built only then.
pub fn run(
    gen: &ServiceWorkload,
    live: Service<Integers>,
    threads: usize,
    seconds: f64,
    between_rounds: &mut dyn FnMut(),
) -> Run {
    let base_epoch = live.shared().epoch();
    let server = serve(live, "127.0.0.1:0").expect("bind a loopback port");
    let addr = server.addr();
    let rate = offered_rate(gen.workload);
    // Alternate open and closed segments, so a burst of outside load on
    // the shared machine hits one round, not a whole phase; throughput is
    // the median round.
    let round_seconds = seconds / ROUNDS as f64;
    let open_requests = (rate * round_seconds * OPEN_SHARE).round().max(1.0) as u64;
    // The same connections serve every segment, so the server runs one
    // thread per connection for the whole run, as a long-lived client pool
    // would have it. With a connection per segment, each segment ran on
    // fresh server threads, which glibc gives fresh allocator arenas:
    // commits paid first-touch page faults, and serve_read's `peak_rss_mb`
    // spread 0.22 (IQR over median, 10 runs) against 0.013 now.
    let mut clients: Vec<Client> = (0..threads)
        .map(|_| Client::connect(addr).expect("connect to the benchmark server"))
        .collect();
    let mut log = Vec::new();
    let mut rates = Vec::new();
    let mut first = 0;
    for round in 0..ROUNDS {
        if round > 0 {
            between_rounds();
        }
        let pace = Pace::Open {
            count: open_requests,
            rate,
        };
        let (open, _) = drive(addr, gen, &mut clients, first, pace);
        log.extend(open);
        first += open_requests;

        let started = Instant::now();
        let end = started + Duration::from_secs_f64(round_seconds * (1.0 - OPEN_SHARE));
        let (closed, next) = drive(addr, gen, &mut clients, first, Pace::Closed { end });
        let elapsed = started.elapsed().as_secs_f64();
        rates.push(closed.iter().filter(|e| e.epoch.is_some()).count() as f64 / elapsed);
        log.extend(closed);
        first = next;
    }
    let peak = peak_rss_mb();
    // The live service goes once its connection threads see the clients
    // hang up.
    drop(clients);
    server.shutdown();

    let mut report = Report::default();
    let closed_n = log.iter().filter(|e| e.phase == Phase::Closed).count();
    report.add("throughput_qps", median(&rates), "1/s", Some(closed_n));
    report.note("throughput_rounds_per_s", format!("{rates:.1?}"));
    latency_metrics(gen.workload, &log, &mut report);
    report.add("peak_rss_mb", peak, "MiB", None);
    report.note("offered_rate_per_s", rate);

    let gate_started = Instant::now();
    let twin = setup(gen, threads);
    let sent_failures = log.iter().filter(|e| e.epoch.is_none()).count() as u64;
    let gate = replay_gate(gen, &twin, &log, base_epoch, threads);
    report.note("replayed_replies", gate.replayed);
    report.note("oracle_checked", gate.oracle_checked);
    report.note("gate_mismatches", gate.mismatches);
    report.note(
        "gate_seconds",
        format!("{:.2}", gate_started.elapsed().as_secs_f64()),
    );
    let attempted = log.len() as u64;
    let failed = sent_failures + gate.mismatches;
    report.add(
        "error_rate",
        failed as f64 / attempted.max(1) as f64,
        "ratio",
        Some(log.len()),
    );
    Run {
        report,
        attempted,
        failed,
    }
}

/// The command each workload is built around; its open-loop median
/// latency is the workload's `primary_p50_ms`.
fn primary_command(workload: Workload) -> Command {
    match workload {
        Workload::ServeRead => Command::Query,
        Workload::ServeWrite => Command::Commit,
        Workload::ServeDatalog => Command::Datalog,
        Workload::Provenance => unreachable!("not a service workload"),
    }
}

fn latency_metrics(workload: Workload, log: &[Entry], report: &mut Report) {
    let open: Vec<&Entry> = log
        .iter()
        .filter(|e| e.phase == Phase::Open && e.epoch.is_some())
        .collect();
    let of = |commands: &[Command]| -> Vec<f64> {
        open.iter()
            .filter(|e| commands.contains(&e.command))
            .map(|e| e.latency_ms)
            .collect()
    };
    let primary = of(&[primary_command(workload)]);
    report.add(
        "primary_p50_ms",
        median(&primary),
        "ms",
        Some(primary.len()),
    );
    // The per-command breakdown, under the names later changes cite.
    for (name, commands, high) in [
        ("query", &[Command::Query][..], 99),
        ("view", &[Command::View, Command::Read][..], 90),
        ("commit", &[Command::Commit][..], 90),
        ("datalog", &[Command::Datalog][..], 90),
    ] {
        let values = of(commands);
        if !values.is_empty() {
            report.add_quantiles(name, "ms", &values, high);
        }
    }
    let late: Vec<f64> = open.iter().map(|e| e.late_ms).collect();
    report.add(
        "bench.generator.late_ms",
        quantile(&late, 0.9),
        "ms",
        Some(late.len()),
    );
    // A backlog that grows through the phase means the offered rate was
    // not sustained: flag the run rather than keep it silently.
    let mut by_index: Vec<&Entry> = open.clone();
    by_index.sort_by_key(|e| e.index);
    let tail: Vec<f64> = by_index[by_index.len() * 3 / 4..]
        .iter()
        .map(|e| e.late_ms)
        .collect();
    let behind = median(&tail) > 100.0;
    report.note("generator_behind", behind);
    if behind {
        eprintln!("warning: the open-loop generator fell behind schedule (late median {:.1} ms in the last quarter)", median(&tail));
    }
}

struct Gate {
    replayed: u64,
    oracle_checked: u64,
    mismatches: u64,
}

/// Replays the logged run on `twin`: commits in epoch order (epochs must be
/// contiguous from `base_epoch`), and every read pinned to the epoch its
/// reply reported. Every reply must be byte-identical; a sample of
/// `QUERY`/`DATALOG` replies is also re-derived by the reference
/// evaluators (the Definition 3.2 interpreter and Kleene iteration).
fn replay_gate(
    gen: &ServiceWorkload,
    twin: &Service<Integers>,
    log: &[Entry],
    base_epoch: u64,
    threads: usize,
) -> Gate {
    let mut gate = Gate {
        replayed: 0,
        oracle_checked: 0,
        mismatches: 0,
    };
    let mut writes: Vec<&Entry> = log
        .iter()
        .filter(|e| e.command == Command::Commit && e.epoch.is_some())
        .collect();
    writes.sort_by_key(|e| e.epoch);
    for (i, write) in writes.iter().enumerate() {
        if write.epoch != Some(base_epoch + 1 + i as u64) {
            eprintln!(
                "gate: commit epochs are not contiguous at {:?}",
                write.epoch
            );
            gate.mismatches += 1;
            return gate;
        }
    }
    let mut reads: BTreeMap<u64, Vec<&Entry>> = BTreeMap::new();
    for entry in log.iter().filter(|e| e.command != Command::Commit) {
        if let Some(epoch) = entry.epoch {
            reads.entry(epoch).or_default().push(entry);
        }
    }
    let mut sample: Vec<u64> = log
        .iter()
        .filter(|e| matches!(e.command, Command::Query | Command::Datalog) && e.epoch.is_some())
        .map(|e| e.index)
        .collect();
    sample.sort_by_key(|&index| mix(gen.seed ^ 0x0AC1E, index));
    sample.truncate(ORACLE_SAMPLE);
    let oracle: HashSet<u64> = sample.into_iter().collect();
    let mut writer = twin.session();
    let last = base_epoch + writes.len() as u64;
    for epoch in base_epoch..=last {
        if epoch > base_epoch {
            let write = writes[(epoch - base_epoch - 1) as usize];
            let reply = writer.handle_line(&gen.request(write.index)).render();
            gate.replayed += 1;
            if fingerprint(&reply) != write.reply {
                eprintln!(
                    "gate: commit at stream position {} replayed as {reply}",
                    write.index
                );
                gate.mismatches += 1;
            }
        }
        let snapshot = twin.shared().snapshot();
        assert_eq!(snapshot.epoch(), epoch, "replay epoch drift");
        let Some(batch) = reads.get(&epoch) else {
            continue;
        };
        let chunk = batch.len().div_ceil(threads);
        let counts: Vec<(u64, u64)> = std::thread::scope(|scope| {
            let handles: Vec<_> = batch
                .chunks(chunk)
                .map(|entries| {
                    let snapshot = snapshot.clone();
                    let oracle = &oracle;
                    scope.spawn(move || replay_reads(gen, twin, snapshot, entries, oracle))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("replay thread"))
                .collect()
        });
        for (checked, mismatches) in counts {
            gate.oracle_checked += checked;
            gate.mismatches += mismatches;
        }
        gate.replayed += batch.len() as u64;
    }
    gate
}

/// Replays reads pinned to `snapshot`; returns (oracle checks, mismatches).
fn replay_reads(
    gen: &ServiceWorkload,
    twin: &Service<Integers>,
    snapshot: DbSnapshot<Integers>,
    entries: &[&Entry],
    oracle: &HashSet<u64>,
) -> (u64, u64) {
    let mut session = twin.session();
    session.pin_to(snapshot.clone());
    let (mut checked, mut mismatches) = (0, 0);
    for entry in entries {
        let line = gen.request(entry.index);
        let reply = session.handle_line(&line).render();
        if fingerprint(&reply) != entry.reply {
            eprintln!(
                "gate: {line:?} at epoch {:?} replayed as a different reply",
                entry.epoch
            );
            mismatches += 1;
            continue;
        }
        if oracle.contains(&entry.index) {
            checked += 1;
            if fingerprint(&oracle_reply(&line, &snapshot)) != entry.reply {
                eprintln!(
                    "gate: {line:?} at epoch {:?} disagrees with the reference evaluator",
                    entry.epoch
                );
                mismatches += 1;
            }
        }
    }
    (checked, mismatches)
}

/// The reply the paper's reference semantics gives for a `QUERY` or
/// `DATALOG` line at `snapshot`: `RaExpr::eval_interpreted` (Definition
/// 3.2) or naive Kleene iteration, rendered in the protocol's row form.
pub fn oracle_reply(line: &str, snapshot: &DbSnapshot<Integers>) -> String {
    let epoch = snapshot.epoch();
    let rows = |schema: Vec<String>, rows| Response::Rows {
        epoch,
        cached: None,
        schema,
        rows,
    };
    match Request::parse(line) {
        Ok(Request::Query(text)) => {
            let expr = parse_ra(&text).expect("generated queries parse");
            let relation = expr
                .eval_interpreted(snapshot.database())
                .expect("generated queries evaluate");
            rows(
                relation
                    .schema()
                    .attributes()
                    .iter()
                    .map(|a| a.name().to_string())
                    .collect(),
                relation
                    .iter()
                    .map(|(t, k)| (t.values().cloned().collect(), k.render_annotation()))
                    .collect(),
            )
            .render()
        }
        Ok(Request::Datalog { program, goal }) => {
            let program = parse_program(&program).expect("generated programs parse");
            let mut edb = FactStore::<Integers>::new();
            for name in program.edb_predicates() {
                if let Some(relation) = snapshot.database().get(&name) {
                    let order: Vec<&str> = relation
                        .schema()
                        .attributes()
                        .iter()
                        .map(|a| a.name())
                        .collect();
                    edb.import_relation(&name, relation, &order);
                }
            }
            let result = kleene_iterate(&program, &edb, DEFAULT_FALLBACK_BOUND);
            assert!(result.converged, "generated programs converge");
            let arity = program
                .rules
                .iter()
                .find(|r| r.head.predicate == goal)
                .map(|r| r.head.arity())
                .expect("goal is an IDB predicate");
            rows(
                (0..arity).map(|i| format!("c{i}")).collect(),
                result
                    .idb
                    .facts_of(&goal)
                    .map(|(fact, k)| (fact.values, k.render_annotation()))
                    .collect(),
            )
            .render()
        }
        _ => panic!("only QUERY and DATALOG lines have a reference evaluator"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reply_epochs_are_read_from_ok_replies_only() {
        assert_eq!(
            reply_epoch(Command::Query, "ok rows epoch=7 [a] (1)@1"),
            Some(7)
        );
        assert_eq!(
            reply_epoch(Command::Commit, "ok committed epoch=9 changes=1"),
            Some(9)
        );
        assert_eq!(reply_epoch(Command::Query, "err parse: at byte 3"), None);
        assert_eq!(reply_epoch(Command::Commit, "ok rows epoch=7 [a]"), None);
    }

    /// The gate counts a reply that differs from the replay by one byte.
    #[test]
    fn corrupted_reply_is_counted_as_a_failure() {
        let gen = ServiceWorkload::new(Workload::ServeDatalog, 5);
        let live = setup(&gen, 1);
        let twin = setup(&gen, 1);
        let base = live.shared().epoch();
        let mut session = live.session();
        let mut log: Vec<Entry> = (0..30)
            .map(|index| {
                let line = gen.request(index);
                let command = Command::of(&line);
                let reply = session.handle_line(&line).render();
                Entry {
                    index,
                    command,
                    phase: Phase::Open,
                    latency_ms: 1.0,
                    late_ms: 0.0,
                    epoch: reply_epoch(command, &reply),
                    reply: fingerprint(&reply),
                }
            })
            .collect();
        assert_eq!(replay_gate(&gen, &twin, &log, base, 2).mismatches, 0);
        let twin = setup(&gen, 1);
        let read = log
            .iter_mut()
            .find(|e| e.command == Command::Datalog)
            .expect("a datalog read in 30 requests");
        read.reply ^= 1;
        assert_eq!(replay_gate(&gen, &twin, &log, base, 2).mismatches, 1);
    }

    #[test]
    fn oracles_agree_with_the_service() {
        for workload in [Workload::ServeRead, Workload::ServeDatalog] {
            let gen = ServiceWorkload::new(workload, 11);
            let service = setup(&gen, 2);
            let mut session = service.session();
            let mut checked = 0;
            for index in 0..200 {
                let line = gen.request(index);
                if matches!(Command::of(&line), Command::Query | Command::Datalog) && checked < 6 {
                    let snapshot = service.shared().snapshot();
                    let reply = session.handle_line(&line).render();
                    assert_eq!(reply, oracle_reply(&line, &snapshot), "{line}");
                    checked += 1;
                } else {
                    session.handle_line(&line);
                }
            }
        }
    }
}
