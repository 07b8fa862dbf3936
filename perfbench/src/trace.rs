//! The traced run: per-layer numbers from spans recorded around the calls
//! into each layer's public functions.
//!
//! A service workload's request stream is replayed serially, in-process, by
//! [`TracedSession`], which performs each request with the same public calls
//! `Session::handle` makes, in the same order, on the same kind of
//! `Service`. `VIEW` (whose batch merge is private to the server) is timed
//! whole as one leaf span. Each reply must be byte-identical to
//! `Session::handle_line`'s on an untraced twin fed the same stream; the
//! twin's per-request time gives the tracing overhead, and a third copy
//! served over TCP gives the client round trip beyond the handler.
//!
//! Because the replay is serial, spans are self time: waiting (for the
//! writer lock, or in the open-loop queue) is the gap between them and the
//! end-to-end latencies.

use crate::gen::{Command, ServiceWorkload, Workload};
use crate::provenance::{Call, Inputs, Oracles};
use crate::service::setup;
use crate::stats::{median, quantile, Report, Run};
use provsem_core::kernels::{join_batches, relation_to_batches, Batch, ColSource};
use provsem_core::prelude::{
    DeltaBatch, EvalError, ExecContext, KRelation, MaterializedView, Plan, RelationSource, Tuple,
};
use provsem_datalog::{
    evaluate_with_context, parse_program, EvalStrategy, FactStore, DEFAULT_FALLBACK_BOUND,
};
use provsem_semiring::ring::Integers;
use provsem_semiring::Semiring;
use provsem_server::prelude::*;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One timed call: name, start and end (ns since the tracer started), the
/// span it ran inside, and the request it belongs to.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub request: u32,
}

/// Records spans and counters in memory. An `off` tracer records nothing,
/// so the untraced paths share the traced code at the cost of a branch.
pub struct Tracer {
    on: bool,
    origin: Instant,
    pub spans: Vec<Span>,
    open: Vec<u32>,
    pub request: u32,
    pub counters: BTreeMap<&'static str, Vec<f64>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            on: true,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
            counters: BTreeMap::new(),
        }
    }

    pub fn off() -> Tracer {
        Tracer {
            on: false,
            ..Tracer::new()
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str) -> u32 {
        if !self.on {
            return 0;
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            request: self.request,
        });
        self.open.push(id);
        id
    }

    pub fn end(&mut self, id: u32) {
        if !self.on {
            return;
        }
        let now = self.now_ns();
        self.spans[id as usize].end_ns = now;
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans close in nesting order");
    }

    pub fn count(&mut self, name: &'static str, value: f64) {
        if self.on {
            self.counters.entry(name).or_default().push(value);
        }
    }

    /// Every value recorded under counter `name`.
    pub fn counter(&self, name: &str) -> &[f64] {
        self.counters.get(name).map_or(&[], Vec::as_slice)
    }

    /// Durations of every span called `name`, in `unit_ns` units.
    pub fn durations(&self, name: &str, unit_ns: f64) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / unit_ns)
            .collect()
    }

    /// Writes every span as a tab-separated line:
    /// `id request parent name start_ns end_ns`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\trequest\tparent\tname\tstart_ns\tend_ns")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{id}\t{}\t{parent}\t{}\t{}\t{}",
                s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

const US: f64 = 1e3;
const MS: f64 = 1e6;

/// Every per-layer metric of `BENCHMARK.json`, with its unit. A layer the
/// workload does not exercise reports 0 with a sample count of 0, and so
/// does `core.plan.rows_examined_per_row` on every workload: the engine
/// has no rows-examined counter, and a figure made up from outside (base
/// relation sizes) could not move when the engine examines fewer rows.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("server.protocol.parse_us", "us"),
    ("server.ra_parse.parse_us", "us"),
    ("server.cache.hit_ratio", "ratio"),
    ("server.cache.plan_us", "us"),
    ("server.render_us", "us"),
    ("server.render_bytes", "bytes"),
    ("server.tcp.roundtrip_overhead_us", "us"),
    ("core.plan.execute_ms", "ms"),
    ("core.plan.rows_examined_per_row", "rows/row"),
    ("core.column.batch_hit_ratio", "ratio"),
    ("core.column.batch_patches_per_commit", "count"),
    ("core.column.convert_ms", "ms"),
    ("core.kernels.mask_ns_per_row", "ns/row"),
    ("core.kernels.hash_ns_per_row", "ns/row"),
    ("core.kernels.join_ns_per_row", "ns/row"),
    ("core.kernels.materialize_ns_per_row", "ns/row"),
    ("core.snapshot.commit_ms", "ms"),
    ("core.snapshot.apply_ms", "ms"),
    ("core.snapshot.commit_wait_ms", "ms"),
    ("core.maintain.view_ms", "ms"),
    ("core.maintain.delta_rows", "rows"),
    ("datalog.parse_us", "us"),
    ("datalog.import_ms", "ms"),
    ("datalog.fixpoint_ms", "ms"),
    ("datalog.rounds", "count"),
    ("datalog.round_ms", "ms"),
    ("datalog.facts_derived", "count"),
    ("core.provenance.tag_ms", "ms"),
    ("core.provenance.execute_ms", "ms"),
    ("core.provenance.specialize_ms", "ms"),
    ("semiring.circuit.nodes", "count"),
    ("semiring.polynomial.monomials", "count"),
    ("datalog.provenance.circuit_ms", "ms"),
    ("datalog.provenance.specialize_ms", "ms"),
    ("bench.generator.late_ms", "ms"),
    ("bench.trace.overhead_pct", "%"),
];

/// Stream positions replayed by the traced run of each service workload.
pub fn traced_requests(workload: Workload) -> u64 {
    match workload {
        Workload::ServeRead => 3000,
        Workload::ServeWrite => 200,
        Workload::ServeDatalog => 120,
        Workload::Provenance => unreachable!(),
    }
}

/// Spans around extra work the service path does not do (apply on a clone
/// and freeing it, shadow view maintenance); excluded from the traced
/// request time.
const SIDE_SPANS: [&str; 3] = ["core.snapshot.apply", "bench.discard", "core.maintain.view"];

/// A shadow of one standing view, fed the same deltas as the service's.
struct Shadow {
    name: String,
    plan: Plan,
    view: MaterializedView<Integers>,
    bases: Vec<String>,
}

/// Performs requests the way `Session::handle` does, with a span around
/// each call into a layer.
pub struct TracedSession {
    service: Service<Integers>,
    /// Serves the `VIEW` requests, timed whole.
    session: Session<Integers>,
    ctx: ExecContext,
    shadows: Vec<Shadow>,
    plan_hits: u64,
    plan_misses: u64,
    commits: u64,
}

impl TracedSession {
    pub fn new(gen: &ServiceWorkload, threads: usize) -> TracedSession {
        let service = setup(gen, threads);
        let snapshot = service.shared().snapshot();
        let shadows = gen
            .view_definitions()
            .iter()
            .map(|line| {
                let (name, text) = line["DEFINE ".len()..]
                    .split_once(" = ")
                    .expect("DEFINE name = expr");
                let expr = parse_ra(text).expect("view definitions parse");
                let plan = Plan::new(&expr, &snapshot.catalog()).expect("view definitions plan");
                let view = plan.materialize(&snapshot);
                Shadow {
                    name: name.to_string(),
                    plan,
                    view,
                    bases: expr.base_relations(),
                }
            })
            .collect();
        TracedSession {
            session: service.session(),
            service,
            ctx: ExecContext::with_threads(threads),
            shadows,
            plan_hits: 0,
            plan_misses: 0,
            commits: 0,
        }
    }

    /// Handles one request line and returns the rendered reply.
    pub fn handle(&mut self, t: &mut Tracer, line: &str) -> String {
        let root = t.begin("request");
        let s = t.begin("server.protocol.parse");
        let request = Request::parse(line);
        t.end(s);
        let response = match request {
            Err((kind, message)) => Response::Error { kind, message },
            Ok(Request::Query(text)) => self.query(t, &text),
            Ok(Request::Read(name)) => {
                let snapshot = self.service.shared().snapshot();
                match snapshot.database().get(&name) {
                    Some(relation) => rows_response(snapshot.epoch(), None, relation),
                    None => Response::error(
                        ErrorKind::UnknownRelation,
                        format!("no base relation {name} at epoch {}", snapshot.epoch()),
                    ),
                }
            }
            Ok(request @ Request::View(_)) => {
                let s = t.begin("server.view");
                let response = self.session.handle(request);
                t.end(s);
                response
            }
            Ok(Request::Commit(items)) => self.commit(t, &items),
            Ok(Request::Datalog { program, goal }) => self.datalog(t, &program, &goal),
            Ok(other) => self.session.handle(other),
        };
        let s = t.begin("server.render");
        let rendered = response.render();
        t.end(s);
        t.count("server.render_bytes", rendered.len() as f64);
        t.end(root);
        rendered
    }

    fn query(&mut self, t: &mut Tracer, text: &str) -> Response {
        let s = t.begin("server.ra_parse.parse");
        let parsed = parse_ra(text).map(|expr| {
            let normalized = normalize(&expr);
            (expr, normalized)
        });
        t.end(s);
        let (expr, normalized) = match parsed {
            Ok(parsed) => parsed,
            Err(e) => return Response::error(ErrorKind::Parse, e),
        };
        let snapshot = self.service.shared().snapshot();
        let planned = self
            .service
            .cache()
            .get_or_plan(snapshot.epoch(), &normalized, || {
                let s = t.begin("server.cache.plan");
                let plan = Plan::new(&expr, &snapshot.catalog());
                t.end(s);
                plan
            });
        match planned {
            Ok((plan, hit)) => {
                if hit {
                    self.plan_hits += 1;
                } else {
                    self.plan_misses += 1;
                }
                let s = t.begin("core.plan.execute");
                let result = plan.execute_with(&snapshot, &self.ctx);
                t.end(s);
                rows_response(snapshot.epoch(), Some(hit), &result)
            }
            Err(e) => eval_error(e),
        }
    }

    fn commit(&mut self, t: &mut Tracer, items: &[CommitItem]) -> Response {
        let head = self.service.shared().snapshot();
        let mut batch = DeltaBatch::new();
        for item in items {
            let Some(relation) = head.database().get(&item.relation) else {
                return Response::error(
                    ErrorKind::UnknownRelation,
                    format!("no base relation {} to commit into", item.relation),
                );
            };
            let schema = relation.schema();
            if schema.arity() != item.values.len() {
                return Response::error(
                    ErrorKind::Arity,
                    format!(
                        "{} has arity {}, got {} values",
                        item.relation,
                        schema.arity(),
                        item.values.len()
                    ),
                );
            }
            let annotation = match Integers::from_wire_count(item.count) {
                Ok(annotation) => annotation,
                Err(message) => return Response::error(ErrorKind::Annotation, message),
            };
            let tuple = Tuple::new(
                schema
                    .attributes()
                    .iter()
                    .cloned()
                    .zip(item.values.iter().cloned()),
            );
            batch.insert(&item.relation, tuple, annotation);
        }
        // Side measurements: the copy-on-write apply alone, and each
        // standing view's maintenance pass on its shadow.
        let s = t.begin("core.snapshot.apply");
        let mut db = head.database().clone();
        batch.apply_to(&mut db);
        t.end(s);
        let s = t.begin("bench.discard");
        drop(db);
        t.end(s);
        for shadow in &mut self.shadows {
            if shadow.bases.iter().any(|b| batch.relation(b).is_some()) {
                let s = t.begin("core.maintain.view");
                let delta = shadow
                    .plan
                    .maintain_returning(&mut shadow.view, &batch, &self.ctx);
                t.end(s);
                t.count("core.maintain.delta_rows", delta.len() as f64);
            }
        }
        let s = t.begin("core.snapshot.commit");
        let epoch = self.service.shared().commit_with(&batch, &self.ctx);
        t.end(s);
        self.commits += 1;
        Response::Committed {
            epoch,
            changes: items.len(),
        }
    }

    fn datalog(&mut self, t: &mut Tracer, text: &str, goal: &str) -> Response {
        let s = t.begin("datalog.parse");
        let program = parse_program(text);
        t.end(s);
        let program = match program {
            Ok(program) => program,
            Err(e) => return Response::error(ErrorKind::Parse, e),
        };
        if !program.is_safe() {
            return Response::error(
                ErrorKind::UnsafeProgram,
                "program is not range-restricted (every head variable must occur in the body)",
            );
        }
        let Some(arity) = program
            .rules
            .iter()
            .find(|rule| rule.head.predicate == goal)
            .map(|rule| rule.head.arity())
        else {
            return Response::error(
                ErrorKind::UnknownRelation,
                format!("goal {goal} is not an IDB predicate of the program (use READ for base relations)"),
            );
        };
        let snapshot = self.service.shared().snapshot();
        let s = t.begin("datalog.import");
        let mut edb = FactStore::<Integers>::new();
        for name in program.edb_predicates() {
            let Some(shared) = snapshot.database().get_shared(&name) else {
                continue;
            };
            let (cache, epoch) = snapshot
                .batch_cache()
                .expect("snapshots carry a batch cache");
            edb.import_batches(&name, &cache.get_or_convert(epoch, &shared));
        }
        t.end(s);
        let s = t.begin("datalog.fixpoint");
        let result = evaluate_with_context(
            &program,
            &edb,
            EvalStrategy::SemiNaive,
            DEFAULT_FALLBACK_BOUND,
            &self.ctx,
        );
        t.end(s);
        t.count("datalog.rounds", result.iterations as f64);
        t.count("datalog.facts_derived", result.idb.len() as f64);
        if !result.converged {
            return Response::error(
                ErrorKind::NotConverged,
                format!(
                    "fixpoint still changing after {DEFAULT_FALLBACK_BOUND} rounds \
                     (annotations may diverge in this semiring)"
                ),
            );
        }
        Response::Rows {
            epoch: snapshot.epoch(),
            cached: None,
            schema: (0..arity).map(|i| format!("c{i}")).collect(),
            rows: result
                .idb
                .facts_of(goal)
                .map(|(fact, k)| (fact.values, k.render_annotation()))
                .collect(),
        }
    }

    /// Whether every shadow view still equals the service's standing view.
    fn shadows_agree(&self) -> bool {
        let snapshot = self.service.shared().snapshot();
        self.shadows
            .iter()
            .all(|s| snapshot.view(&s.name) == Some(s.view.result()))
    }
}

fn rows_response(epoch: u64, cached: Option<bool>, relation: &KRelation<Integers>) -> Response {
    Response::Rows {
        epoch,
        cached,
        schema: relation
            .schema()
            .attributes()
            .iter()
            .map(|a| a.name().to_string())
            .collect(),
        rows: relation
            .iter()
            .map(|(tuple, k)| (tuple.values().cloned().collect(), k.render_annotation()))
            .collect(),
    }
}

fn eval_error(e: EvalError) -> Response {
    let kind = match &e {
        EvalError::UnknownRelation(_) => ErrorKind::UnknownRelation,
        EvalError::SchemaMismatch { .. } => ErrorKind::Schema,
        EvalError::InvalidProjection { .. } => ErrorKind::Projection,
        EvalError::InvalidRenaming(_) => ErrorKind::Renaming,
    };
    Response::error(kind, e)
}

/// The outcome of a traced run.
pub struct TraceRun {
    pub run: Run,
    pub tracer: Tracer,
}

/// Per-layer metrics that are the durations of one kind of span: metric,
/// span name, and nanoseconds per unit of the metric.
const SPAN_METRICS: [(&str, &str, f64); 16] = [
    ("server.protocol.parse_us", "server.protocol.parse", US),
    ("server.ra_parse.parse_us", "server.ra_parse.parse", US),
    ("server.cache.plan_us", "server.cache.plan", US),
    ("server.render_us", "server.render", US),
    ("core.plan.execute_ms", "core.plan.execute", MS),
    ("core.snapshot.commit_ms", "core.snapshot.commit", MS),
    ("core.snapshot.apply_ms", "core.snapshot.apply", MS),
    ("core.maintain.view_ms", "core.maintain.view", MS),
    ("datalog.parse_us", "datalog.parse", US),
    ("datalog.import_ms", "datalog.import", MS),
    ("datalog.fixpoint_ms", "datalog.fixpoint", MS),
    ("core.provenance.tag_ms", "core.provenance.tag", MS),
    ("core.provenance.execute_ms", "core.provenance.execute", MS),
    (
        "core.provenance.specialize_ms",
        "core.provenance.specialize",
        MS,
    ),
    (
        "datalog.provenance.circuit_ms",
        "datalog.provenance.circuit",
        MS,
    ),
    (
        "datalog.provenance.specialize_ms",
        "datalog.provenance.specialize",
        MS,
    ),
];

/// Per-layer metrics that are counters recorded under their own name.
const COUNTER_METRICS: [&str; 6] = [
    "server.render_bytes",
    "core.maintain.delta_rows",
    "datalog.rounds",
    "datalog.facts_derived",
    "semiring.circuit.nodes",
    "semiring.polynomial.monomials",
];

/// The per-layer metrics read straight off the spans and counters.
fn tracer_metrics(report: &mut Report, t: &Tracer) {
    for (metric, span, unit_ns) in SPAN_METRICS {
        add_sample_metric(report, metric, &t.durations(span, unit_ns));
    }
    for name in COUNTER_METRICS {
        add_sample_metric(report, name, t.counter(name));
    }
}

fn add_sample_metric(report: &mut Report, metric: &str, values: &[f64]) {
    report.add(metric, median(values), unit_of(metric), Some(values.len()));
    report.note(&format!("{metric}.p90"), quantile(values, 0.9));
}

/// Reports every per-layer metric the run did not measure (a layer the
/// workload does not exercise) as 0 with a sample count of 0.
pub fn fill_unmeasured(report: &mut Report) {
    for (name, unit) in PER_LAYER {
        if report.get(name).is_none() {
            report.add(name, 0.0, unit, Some(0));
        }
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The traced run of a service workload over its first `n` stream
/// positions. `run` is the untraced run's report (for commit waiting and
/// generator lateness).
pub fn service_trace(gen: &ServiceWorkload, threads: usize, run: &Report, n: u64) -> TraceRun {
    let lines: Vec<String> = (0..n).map(|i| gen.request(i)).collect();

    // Three copies of the service fed the same stream, request by request
    // (interleaved, so drift in machine speed hits all three alike): an
    // untraced twin through Session::handle_line, the traced session, and
    // a served copy over TCP.
    let twin = setup(gen, threads);
    let mut session = twin.session();
    let mut replay = TracedSession::new(gen, threads);
    let server = serve(setup(gen, threads), "127.0.0.1:0").expect("bind a loopback port");
    let mut client = Client::connect(server.addr()).expect("connect to the benchmark server");
    let mut t = Tracer::new();
    let before = replay.service.shared().snapshot().batch_cache_stats();
    let mut untraced_ns = Vec::with_capacity(lines.len());
    let mut overhead_us = Vec::with_capacity(lines.len());
    let mut failed = 0;
    for (i, line) in lines.iter().enumerate() {
        t.request = i as u32;
        // Alternate which of the twin and the replay goes first, so cache
        // and allocator warmth left by one favours neither.
        let mut traced = None;
        if i % 2 == 1 {
            traced = Some(replay.handle(&mut t, line));
        }
        let start = Instant::now();
        let expected = session.handle_line(line).render();
        let handler_ns = start.elapsed().as_nanos() as f64;
        untraced_ns.push(handler_ns);
        let traced = traced.unwrap_or_else(|| replay.handle(&mut t, line));
        if traced != expected {
            eprintln!(
                "trace: the traced session's reply to {line:?} differs from Session::handle_line's"
            );
            failed += 1;
        }
        let start = Instant::now();
        match client.request(line) {
            // Commits and datalog programs are left out of the round-trip
            // overhead: their handler time varies from one call to the next
            // by more than the overhead itself.
            Ok(reply) if reply == expected => {
                if !matches!(Command::of(line), Command::Commit | Command::Datalog) {
                    overhead_us.push((start.elapsed().as_nanos() as f64 - handler_ns) / US);
                }
            }
            _ => {
                eprintln!("trace: the TCP reply to {line:?} differs");
                failed += 1;
            }
        }
    }
    drop(client);
    server.shutdown();
    let after = replay.service.shared().snapshot().batch_cache_stats();
    if !replay.shadows_agree() {
        eprintln!("trace: a shadow view diverged from the service's standing view");
        failed += 1;
    }

    // Traced time per request, side measurements excluded.
    let mut traced_ns = vec![0.0; lines.len()];
    for s in &t.spans {
        let d = (s.end_ns - s.start_ns) as f64;
        if s.name == "request" {
            traced_ns[s.request as usize] += d;
        } else if SIDE_SPANS.contains(&s.name) {
            traced_ns[s.request as usize] -= d;
        }
    }

    let mut report = Report::default();
    tracer_metrics(&mut report, &t);
    let lookups = (replay.plan_hits + replay.plan_misses) as f64;
    report.add(
        "server.cache.hit_ratio",
        ratio(replay.plan_hits as f64, lookups),
        "ratio",
        Some(lookups as usize),
    );
    add_sample_metric(
        &mut report,
        "server.tcp.roundtrip_overhead_us",
        &overhead_us,
    );
    let scans = (after.hits - before.hits + after.misses - before.misses) as f64;
    report.add(
        "core.column.batch_hit_ratio",
        ratio((after.hits - before.hits) as f64, scans),
        "ratio",
        Some(scans as usize),
    );
    report.add(
        "core.column.batch_patches_per_commit",
        ratio(
            (after.patches - before.patches) as f64,
            replay.commits as f64,
        ),
        "count",
        Some(replay.commits as usize),
    );
    // Signed: it reads below zero when the wait is smaller than the gap
    // between the serial replay's self time and the live run's.
    let commit_self = median(&t.durations("core.snapshot.commit", MS));
    let commit_wait = run
        .get("commit_p50_ms")
        .map_or(0.0, |e2e| e2e - commit_self);
    report.add(
        "core.snapshot.commit_wait_ms",
        commit_wait,
        "ms",
        Some(replay.commits as usize),
    );
    let per_round: Vec<f64> = t
        .durations("datalog.fixpoint", MS)
        .iter()
        .zip(t.counter("datalog.rounds"))
        .map(|(ms, r)| ms / r.max(1.0))
        .collect();
    add_sample_metric(&mut report, "datalog.round_ms", &per_round);

    // Kernels and conversion on this workload's own relations.
    let snapshot = replay.service.shared().snapshot();
    let db = snapshot.database();
    match gen.workload {
        Workload::ServeDatalog => {
            let e = db.get("E").expect("E");
            // E(s, t) join E(s', t') on t = s'.
            kernel_metrics(&mut report, e, e, 0, 1);
        }
        _ => {
            // T(c, v) join F(g, v) on v.
            kernel_metrics(
                &mut report,
                db.get("T").expect("T"),
                db.get("F").expect("F"),
                1,
                1,
            );
        }
    }
    // bench.generator.late_ms comes from the untraced run's report.
    let traced: f64 = traced_ns.iter().sum();
    let untraced: f64 = untraced_ns.iter().sum();
    report.add(
        "bench.trace.overhead_pct",
        100.0 * (traced - untraced) / untraced,
        "%",
        Some(lines.len()),
    );
    report.note("traced_requests", lines.len());
    report.note("traced_commands", format!("{:?}", command_counts(&lines)));
    TraceRun {
        run: Run {
            report,
            attempted: n,
            failed,
        },
        tracer: t,
    }
}

fn command_counts(lines: &[String]) -> BTreeMap<String, usize> {
    let mut counts = BTreeMap::new();
    for line in lines {
        *counts
            .entry(format!("{:?}", Command::of(line)))
            .or_default() += 1;
    }
    counts
}

fn unit_of(metric: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|(name, _)| *name == metric)
        .map(|(_, unit)| *unit)
        .expect("a declared per-layer metric")
}

/// Timings per kernel; each kernel metric is their median.
const KERNEL_REPS: usize = 5;

/// Median over `reps` calls of the time (ns) `f` takes on a fresh
/// `input()`; making the input and dropping the output are not timed.
fn time_ns<I, R>(reps: usize, mut input: impl FnMut() -> I, mut f: impl FnMut(I) -> R) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let input = std::hint::black_box(input());
            let t = Instant::now();
            let out = std::hint::black_box(f(input));
            let ns = t.elapsed().as_nanos() as f64;
            drop(out);
            ns
        })
        .collect();
    median(&times)
}

/// The columnar kernels on this workload's own relations: `relation_to_batches`
/// of `probe`, the mask (`Batch::refine`), hash (`Batch::key_hashes`) and
/// materialize kernels over its batches, and `join_batches` of `build`
/// (key column `build_key`) against `probe` (key column `probe_key`).
fn kernel_metrics<K: Semiring>(
    report: &mut Report,
    build: &KRelation<K>,
    probe: &KRelation<K>,
    build_key: usize,
    probe_key: usize,
) {
    let reps = KERNEL_REPS;
    let convert_ns = time_ns(reps, || (), |()| relation_to_batches(probe));
    report.add("core.column.convert_ms", convert_ns / MS, "ms", Some(reps));
    let batches = relation_to_batches(probe);
    let build_batches = relation_to_batches(build);
    // Keep every other row: a mask that defeats branch prediction less
    // than a random one but still moves half the selection vector.
    let masks: Vec<Vec<bool>> = batches
        .iter()
        .map(|b| (0..b.phys_rows()).map(|r| r % 2 == 0).collect())
        .collect();
    let refine = |batches: Vec<Batch<K>>| -> Vec<Batch<K>> {
        batches
            .into_iter()
            .zip(&masks)
            .map(|(mut b, m)| {
                b.refine(m);
                b
            })
            .collect()
    };
    let mut output: Vec<ColSource> = (0..probe.schema().arity()).map(ColSource::Probe).collect();
    output.extend(
        (0..build.schema().arity())
            .filter(|&c| c != build_key)
            .map(ColSource::Build),
    );
    let kernels = [
        (
            "core.kernels.mask_ns_per_row",
            time_ns(reps, || batches.clone(), &refine),
        ),
        (
            "core.kernels.hash_ns_per_row",
            time_ns(
                reps,
                || (),
                |()| {
                    batches
                        .iter()
                        .map(|b| b.key_hashes(&[probe_key]).len())
                        .sum::<usize>()
                },
            ),
        ),
        (
            "core.kernels.materialize_ns_per_row",
            time_ns(
                reps,
                || refine(batches.clone()),
                |refined| {
                    refined
                        .into_iter()
                        .map(Batch::materialize)
                        .collect::<Vec<_>>()
                },
            ),
        ),
        (
            "core.kernels.join_ns_per_row",
            time_ns(
                reps,
                || (build_batches.clone(), batches.clone()),
                |(b, p)| join_batches(b, p, &[build_key], &[probe_key], &output, false),
            ),
        ),
    ];
    for (name, ns) in kernels {
        report.add(name, ns / probe.len() as f64, "ns/row", Some(reps));
    }
}

/// The traced run of the provenance workload: the rotation's three calls,
/// each `reps` times, with spans around tag, execute and specialize.
pub fn provenance_trace(
    inputs: &Inputs,
    oracles: &Oracles,
    call_ms: &[(Call, f64)],
    reps: usize,
) -> TraceRun {
    let mut t = Tracer::new();
    let mut failed = 0;
    let mut traced_ms = Vec::new();
    for (i, call) in [Call::RaCircuit, Call::RaPolynomial, Call::Datalog]
        .into_iter()
        .cycle()
        .take(3 * reps)
        .enumerate()
    {
        t.request = i as u32;
        let out = inputs.call(call, &mut t);
        let root = t
            .spans
            .iter()
            .rev()
            .find(|s| s.name == "provenance.call")
            .expect("root span");
        traced_ms.push((call, (root.end_ns - root.start_ns) as f64 / MS));
        if !oracles.check(call, &out) {
            failed += 1;
        }
    }
    // Overhead: traced vs untraced median per call kind, weighted by how
    // often the untraced run made each call.
    let (mut traced, mut untraced) = (0.0, 0.0);
    for kind in [Call::RaCircuit, Call::RaPolynomial, Call::Datalog] {
        let of = |v: &[(Call, f64)]| {
            median(
                &v.iter()
                    .filter(|(c, _)| *c == kind)
                    .map(|(_, ms)| *ms)
                    .collect::<Vec<_>>(),
            )
        };
        let count = call_ms.iter().filter(|(c, _)| *c == kind).count() as f64;
        traced += of(&traced_ms) * count;
        untraced += of(call_ms) * count;
    }

    let mut report = Report::default();
    tracer_metrics(&mut report, &t);
    report.add(
        "bench.trace.overhead_pct",
        100.0 * (traced - untraced) / untraced,
        "%",
        Some(3 * reps),
    );
    // R(a, b, c) join R(a', b', c') on b = a': the kernels on the circuit
    // call's ℕ input.
    let r = inputs.circuit_db.get("R").expect("R");
    kernel_metrics(&mut report, r, r, 0, 1);
    TraceRun {
        run: Run {
            report,
            attempted: 3 * reps as u64,
            failed,
        },
        tracer: t,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Samples behind `name` in `report` (0 if it was not measured).
    fn samples(report: &Report, name: &str) -> usize {
        report
            .metrics
            .iter()
            .find(|m| m.name == name)
            .and_then(|m| m.samples)
            .unwrap_or(0)
    }

    /// On a short stream of every service workload the traced session's
    /// replies equal `Session::handle_line`'s, over TCP too, and the layers
    /// the workload exercises are measured.
    #[test]
    fn traced_replies_equal_the_service_replies() {
        for (workload, layers) in [
            (
                Workload::ServeRead,
                &[
                    "server.protocol.parse_us",
                    "server.ra_parse.parse_us",
                    "server.render_us",
                    "server.tcp.roundtrip_overhead_us",
                    "core.plan.execute_ms",
                    "core.kernels.join_ns_per_row",
                ][..],
            ),
            (
                Workload::ServeWrite,
                &["core.snapshot.commit_ms", "core.maintain.view_ms"][..],
            ),
            (
                Workload::ServeDatalog,
                &["datalog.import_ms", "datalog.fixpoint_ms", "datalog.rounds"][..],
            ),
        ] {
            let gen = ServiceWorkload::new(workload, 21);
            let traced = service_trace(&gen, 2, &Report::default(), 40);
            assert_eq!(traced.run.failed, 0, "{workload:?}");
            for name in layers {
                assert!(
                    samples(&traced.run.report, name) > 0,
                    "{workload:?}: {name}"
                );
            }
        }
    }

    #[test]
    fn traced_provenance_calls_pass_the_factorization_check() {
        let inputs = Inputs::setup(21, 2);
        let oracles = Oracles::new(&inputs);
        let call_ms = [
            (Call::RaCircuit, 1.0),
            (Call::RaPolynomial, 1.0),
            (Call::Datalog, 1.0),
        ];
        let traced = provenance_trace(&inputs, &oracles, &call_ms, 1);
        assert_eq!(traced.run.failed, 0);
        for name in [
            "core.provenance.tag_ms",
            "core.provenance.execute_ms",
            "core.provenance.specialize_ms",
            "semiring.circuit.nodes",
            "semiring.polynomial.monomials",
            "datalog.provenance.circuit_ms",
            "datalog.provenance.specialize_ms",
        ] {
            assert!(samples(&traced.run.report, name) > 0, "{name}");
        }
    }

    /// Every per-layer metric is on the last line, measured or not.
    #[test]
    fn unmeasured_layers_are_filled() {
        let mut report = Report::default();
        report.add("server.render_us", 3.0, "us", Some(2));
        fill_unmeasured(&mut report);
        assert_eq!(report.metrics.len(), PER_LAYER.len());
        assert_eq!(report.get("server.render_us"), Some(3.0));
        assert_eq!(samples(&report, "datalog.rounds"), 0);
    }

    #[test]
    fn spans_nest_and_off_records_nothing() {
        let mut t = Tracer::new();
        let outer = t.begin("outer");
        let inner = t.begin("inner");
        t.end(inner);
        t.end(outer);
        assert_eq!(t.spans[1].parent, Some(0));
        assert!(t.spans[0].end_ns >= t.spans[1].end_ns);
        let mut off = Tracer::off();
        let s = off.begin("x");
        off.end(s);
        off.count("c", 1.0);
        assert!(off.spans.is_empty() && off.counters.is_empty());
    }
}
