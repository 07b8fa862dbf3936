//! The `provenance` workload: the paper's provenance pipeline called
//! through the library, one caller in a closed loop.
//!
//! * RA, circuit form: tag `random_ternary_bag(seed, 2000, 20, 5)` with
//!   circuit variables, run the Section 2 query, specialize to ℕ.
//! * RA, ℕ\[X\] form: the same on `random_ternary_bag(seed, 300, 10, 5)`
//!   with expanded provenance polynomials.
//! * Datalog: circuit provenance of transitive closure on
//!   `random_dag_store(seed, 6, 12)`, specialized to ℕ∞.
//!
//! The ℕ\[X\] and datalog calls rotate over four instances (`seed` and
//! three seeds derived from it).
//!
//! Every call's output is checked against direct evaluation in the target
//! semiring (the factorization theorem, Thm. 4.3 / 6.4), outside the timed
//! window. The direct results ([`Oracles`]) are computed after set-up, so
//! `setup_s` does not include them.

use crate::gen::mix;
use crate::stats::{median, peak_rss_mb, Report, Run, ROUNDS};
use crate::trace::Tracer;
use provsem_bench::{random_dag_store, random_ternary_bag};
use provsem_core::prelude::{
    paper_example_query, provenance_size, specialize_circuit_with, specialize_with, tag_database,
    tag_database_circuit, Database, ExecContext, KRelation, Plan, RelationSource,
};
use provsem_datalog::{
    datalog_provenance_circuit, evaluate_with_context, EvalStrategy, FactStore, Program,
    DEFAULT_FALLBACK_BOUND,
};
use provsem_semiring::{circuit, NatInf, Natural};
use std::cell::Cell;
use std::time::Instant;

/// The call rotation: three circuit RA calls to one polynomial RA call,
/// twice, then one datalog call. RA calls dominate the count, the datalog
/// call the time.
const ROTATION: [Call; 9] = [
    Call::RaCircuit,
    Call::RaCircuit,
    Call::RaCircuit,
    Call::RaPolynomial,
    Call::RaCircuit,
    Call::RaCircuit,
    Call::RaCircuit,
    Call::RaPolynomial,
    Call::Datalog,
];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Call {
    RaCircuit,
    RaPolynomial,
    Datalog,
}

/// Generated instances of the ℕ\[X\] and datalog inputs. Successive calls
/// take successive instances, so a run's percentiles average over several
/// draws instead of hinging on one seed's (their costs differ by ±15%).
const INSTANCES: usize = 4;

/// One ℕ\[X\] instance: the database and its plan.
struct Polynomial {
    db: Database<Natural>,
    plan: Plan,
}

/// The generated inputs, planned.
pub struct Inputs {
    pub circuit_db: Database<Natural>,
    circuit_plan: Plan,
    polynomials: Vec<Polynomial>,
    dags: Vec<FactStore<NatInf>>,
    program: Program,
    ctx: ExecContext,
    next_polynomial: Cell<usize>,
    next_dag: Cell<usize>,
}

/// A call's specialized output, with the instance it ran on.
pub enum Output {
    Relation(usize, KRelation<Natural>),
    Facts(usize, FactStore<NatInf>),
}

impl Inputs {
    /// Generates the inputs, plans the query and runs each call once, so
    /// caches and lazy set-up are warm.
    pub fn setup(seed: u64, threads: usize) -> Inputs {
        let ctx = ExecContext::with_threads(threads);
        let query = paper_example_query("R");
        // Instance 0 is drawn from `seed` itself, the others from seeds
        // derived from it.
        let seeds: Vec<u64> = (0..INSTANCES as u64)
            .map(|j| if j == 0 { seed } else { mix(seed, j) })
            .collect();
        let circuit_db = random_ternary_bag(seed, 2000, 20, 5);
        let circuit_plan = Plan::new(&query, &circuit_db.catalog()).expect("section 2 query plans");
        let polynomials = seeds
            .iter()
            .map(|&s| {
                let db = random_ternary_bag(s, 300, 10, 5);
                let plan = Plan::new(&query, &db.catalog()).expect("section 2 query plans");
                Polynomial { db, plan }
            })
            .collect();
        let inputs = Inputs {
            circuit_db,
            circuit_plan,
            polynomials,
            dags: seeds.iter().map(|&s| random_dag_store(s, 6, 12)).collect(),
            program: Program::transitive_closure("R", "Q"),
            ctx,
            next_polynomial: Cell::new(0),
            next_dag: Cell::new(0),
        };
        for call in [Call::RaCircuit, Call::RaPolynomial, Call::Datalog] {
            inputs.call(call, &mut Tracer::off());
        }
        inputs
    }

    fn next(counter: &Cell<usize>) -> usize {
        let i = counter.get();
        counter.set((i + 1) % INSTANCES);
        i
    }

    /// One library call: tag → execute → specialize (RA) or circuit
    /// provenance → specialize (datalog). Spans go to `tracer`.
    pub fn call(&self, call: Call, tracer: &mut Tracer) -> Output {
        let root = tracer.begin("provenance.call");
        let out = match call {
            Call::RaCircuit => {
                circuit::vacuum();
                let s = tracer.begin("core.provenance.tag");
                let tagged = tag_database_circuit(&self.circuit_db);
                tracer.end(s);
                let s = tracer.begin("core.provenance.execute");
                let prov = self.circuit_plan.execute_with(&tagged.database, &self.ctx);
                tracer.end(s);
                tracer.count("semiring.circuit.nodes", circuit::arena_node_count() as f64);
                let s = tracer.begin("core.provenance.specialize");
                let out = specialize_circuit_with(&prov, &tagged.valuation, &self.ctx);
                tracer.end(s);
                Output::Relation(0, out)
            }
            Call::RaPolynomial => {
                let i = Inputs::next(&self.next_polynomial);
                let p = &self.polynomials[i];
                let s = tracer.begin("core.provenance.tag");
                let tagged = tag_database(&p.db);
                tracer.end(s);
                let s = tracer.begin("core.provenance.execute");
                let prov = p.plan.execute_with(&tagged.database, &self.ctx);
                tracer.end(s);
                tracer.count(
                    "semiring.polynomial.monomials",
                    provenance_size(&prov) as f64,
                );
                let s = tracer.begin("core.provenance.specialize");
                let out = specialize_with(&prov, &tagged.valuation, &self.ctx);
                tracer.end(s);
                Output::Relation(i, out)
            }
            Call::Datalog => {
                let i = Inputs::next(&self.next_dag);
                circuit::vacuum();
                let s = tracer.begin("datalog.provenance.circuit");
                let prov = datalog_provenance_circuit(
                    &self.program,
                    &self.dags[i],
                    DEFAULT_FALLBACK_BOUND,
                );
                tracer.end(s);
                let s = tracer.begin("datalog.provenance.specialize");
                let out = prov.specialize();
                tracer.end(s);
                Output::Facts(i, out)
            }
        };
        tracer.end(root);
        out
    }
}

/// Direct evaluation of every instance in its target semiring: the plans
/// run over ℕ, the semi-naive ℕ∞ fixpoint of each DAG.
pub struct Oracles {
    circuit: KRelation<Natural>,
    polynomials: Vec<KRelation<Natural>>,
    dags: Vec<FactStore<NatInf>>,
}

impl Oracles {
    pub fn new(inputs: &Inputs) -> Oracles {
        let ctx = &inputs.ctx;
        Oracles {
            circuit: inputs.circuit_plan.execute_with(&inputs.circuit_db, ctx),
            polynomials: inputs
                .polynomials
                .iter()
                .map(|p| p.plan.execute_with(&p.db, ctx))
                .collect(),
            dags: inputs
                .dags
                .iter()
                .map(|edb| {
                    let direct = evaluate_with_context(
                        &inputs.program,
                        edb,
                        EvalStrategy::SemiNaive,
                        DEFAULT_FALLBACK_BOUND,
                        ctx,
                    );
                    assert!(direct.converged, "transitive closure of a DAG converges");
                    direct.idb
                })
                .collect(),
        }
    }

    /// The factorization theorem on a call's output: specialized
    /// provenance equals direct evaluation in the target semiring.
    pub fn check(&self, call: Call, out: &Output) -> bool {
        match (call, out) {
            (Call::RaCircuit, Output::Relation(_, r)) => *r == self.circuit,
            (Call::RaPolynomial, Output::Relation(i, r)) => *r == self.polynomials[*i],
            (Call::Datalog, Output::Facts(i, f)) => *f == self.dags[*i],
            _ => false,
        }
    }
}

/// Calls the rotation in a closed loop for `seconds`, in `ROUNDS` rounds
/// with `between_rounds` called between them (outside any call's time).
/// Returns the run and each call's time by kind (for the trace's overhead
/// figure).
pub fn run(
    inputs: &Inputs,
    oracles: &Oracles,
    seconds: f64,
    between_rounds: &mut dyn FnMut(),
) -> (Run, Vec<(Call, f64)>) {
    let mut call_ms = Vec::new();
    let mut failed = 0;
    let mut tracer = Tracer::off();
    let mut calls = ROTATION.into_iter().cycle();
    for round in 0..ROUNDS {
        if round > 0 {
            between_rounds();
        }
        let started = Instant::now();
        while started.elapsed().as_secs_f64() < seconds / ROUNDS as f64 {
            let call = calls.next().expect("the rotation cycles");
            let t = Instant::now();
            let out = inputs.call(call, &mut tracer);
            call_ms.push((call, t.elapsed().as_secs_f64() * 1e3));
            if !oracles.check(call, &out) {
                eprintln!("provenance: {call:?} output differs from direct evaluation");
                failed += 1;
            }
        }
    }
    // Throughput is the median over whole rotations (each the same mix of
    // calls) of calls per second spent in calls, so a burst of outside
    // load hits a few rotations, and the output checks between calls,
    // which are not the library's time, are left out.
    let rates: Vec<f64> = call_ms
        .chunks_exact(ROTATION.len())
        .map(|rotation| {
            rotation.len() as f64 * 1e3 / rotation.iter().map(|(_, ms)| ms).sum::<f64>()
        })
        .collect();
    let of = |kinds: &[Call]| -> Vec<f64> {
        call_ms
            .iter()
            .filter(|(c, _)| kinds.contains(c))
            .map(|(_, ms)| *ms)
            .collect()
    };
    let ra = of(&[Call::RaCircuit, Call::RaPolynomial]);
    let dl = of(&[Call::Datalog]);
    let mut report = Report::default();
    report.add("throughput_qps", median(&rates), "1/s", Some(call_ms.len()));
    report.add("primary_p50_ms", median(&ra), "ms", Some(ra.len()));
    report.add_quantiles("provenance_ra", "ms", &ra, 90);
    report.add_quantiles("provenance_ra_circuit", "ms", &of(&[Call::RaCircuit]), 90);
    report.add_quantiles(
        "provenance_ra_polynomial",
        "ms",
        &of(&[Call::RaPolynomial]),
        90,
    );
    report.add_quantiles("provenance_dl", "ms", &dl, 90);
    report.add("peak_rss_mb", peak_rss_mb(), "MiB", None);
    let attempted = call_ms.len() as u64;
    report.add(
        "error_rate",
        failed as f64 / attempted.max(1) as f64,
        "ratio",
        Some(call_ms.len()),
    );
    (
        Run {
            report,
            attempted,
            failed,
        },
        call_ms,
    )
}
