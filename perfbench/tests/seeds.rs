//! The benchmark's own checks: a seed fixes everything simulated, tracing
//! changes nothing simulated, another seed changes the simulation, and
//! `BENCHMARK.json` names exactly the metrics the benchmark prints.
//!
//! Each case runs full-size repetitions: run with `--release`.

use xssd_perfbench::report::{END_TO_END, PER_LAYER};
use xssd_perfbench::trace::Tracer;
use xssd_perfbench::{run_rep, Rep, WORKLOADS};

fn rep(workload: &str, seed: u64, traced: bool) -> (Rep, Tracer) {
    let tracer = Tracer::shared(traced);
    let rep = run_rep(workload, seed, &tracer);
    assert!(rep.failures.is_empty(), "{workload} seed {seed}: {:?}", rep.failures);
    assert_eq!(rep.failed, 0);
    let tracer = std::rc::Rc::try_unwrap(tracer).expect("wrappers are dropped").into_inner();
    (rep, tracer)
}

fn check_workload(workload: &str) {
    let (a, _) = rep(workload, 7, false);
    let (b, spans) = rep(workload, 7, true);
    assert_eq!(a.sim, b.sim, "{workload}: same seed, traced or not, same simulation");
    let (c, _) = rep(workload, 8, false);
    assert_ne!(a.sim.digest, c.sim.digest, "{workload}: another seed changes the digest");
    assert_ne!(
        (a.sim.commit_p50_us, a.sim.commit_p99_us, a.sim.virt_ops_per_s, a.sim.recovery_virt_ms),
        (c.sim.commit_p50_us, c.sim.commit_p99_us, c.sim.virt_ops_per_s, c.sim.recovery_virt_ms),
        "{workload}: another seed changes the virtual metrics"
    );

    // The layers each workload is chosen for appear in its trace, and
    // only there.
    let totals = spans.totals_by_root();
    let has = |root: &str, name: &str| totals.contains_key(&(root, name));
    let lifecycle = workload == "ycsb-lifecycle";
    assert_eq!(has("run", "memdb.checkpoint"), lifecycle, "{workload}: checkpoints");
    assert_eq!(has("recovery", "memdb.recovery.restore"), lifecycle, "{workload}: restore");
    assert_eq!(has("recovery", "memdb.recovery.replay"), lifecycle, "{workload}: replay");
    let database = workload != "append-replicated";
    assert_eq!(has("run", "workload.execute"), database, "{workload}: execute");
    assert_eq!(has("run", "driver.run"), database, "{workload}: driver");
    assert_eq!(has("run", "core.api.x_fsync"), !database, "{workload}: raw core API");
    assert!(has("setup", "setup") && has("recovery", "core.api.x_pread"), "{workload}");
}

#[test]
fn tpcc_local_is_a_function_of_its_seed() {
    check_workload("tpcc-local");
}

#[test]
fn ycsb_lifecycle_is_a_function_of_its_seed() {
    check_workload("ycsb-lifecycle");
}

#[test]
fn append_replicated_is_a_function_of_its_seed() {
    check_workload("append-replicated");
}

#[test]
fn benchmark_json_names_every_printed_metric() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for w in WORKLOADS {
        assert!(text.contains(&format!("\"name\": \"{w}\"")), "workload {w}");
    }
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        assert!(text.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")), "{name}");
    }
    let declared = text.matches("\"name\":").count();
    assert_eq!(declared, WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len());
}
