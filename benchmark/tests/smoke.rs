//! All five workloads at smoke size, through the same `run` entry point
//! the command line uses, plus the contract between the code's metric
//! catalogue and the root `BENCHMARK.json`.

use std::path::Path;

use deltacfs_benchmark::compare::DEFAULT_SEED;
use deltacfs_benchmark::report::{RunOutput, END_TO_END, PER_LAYER};
use deltacfs_benchmark::run::{run, RunArgs};
use deltacfs_benchmark::scratch_dir;
use deltacfs_benchmark::workloads::{Size, Workload};
use serde_json::Value;

fn args(workload: Workload, trace: bool) -> RunArgs {
    RunArgs {
        workload,
        seed: DEFAULT_SEED,
        seconds: 0.2,
        // A fixed count: two runs of one seed then do identical work.
        iterations: Some(4),
        trace,
        size: Size::Smoke,
        tmp_dir: scratch_dir(),
        trace_out: None,
    }
}

fn value(out: &RunOutput, name: &str) -> f64 {
    out.metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("{name} was not printed"))
        .value
}

fn benchmark_json() -> serde_json::Map {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json sits at the repository root");
    match serde_json::from_str::<Value>(&text).expect("BENCHMARK.json is JSON") {
        Value::Object(root) => root,
        other => panic!("BENCHMARK.json is not an object: {other:?}"),
    }
}

fn names(list: Option<&Value>) -> Vec<String> {
    let Some(Value::Array(items)) = list else {
        panic!("expected a list");
    };
    items
        .iter()
        .map(|item| match item {
            Value::Object(entry) => match entry.get("name") {
                Some(Value::String(name)) => name.clone(),
                other => panic!("entry without a name: {other:?}"),
            },
            other => panic!("entry is not an object: {other:?}"),
        })
        .collect()
}

#[test]
fn untraced_runs_print_every_end_to_end_metric_and_repeat_exactly() {
    let declared = names(benchmark_json().get("end_to_end"));
    for w in Workload::ALL {
        let a = run(&args(w, false));
        let b = run(&args(w, false));
        for out in [&a, &b] {
            assert!(out.correct, "{}: {:?}", w.name(), out.notes);
            assert_eq!(out.failed, 0, "{}: {:?}", w.name(), out.notes);
            let printed: Vec<&str> = out.metrics.iter().map(|m| m.name).collect();
            assert_eq!(printed, declared, "{}", w.name());
            for m in &out.metrics {
                assert!(
                    m.value.is_finite() && m.value > 0.0,
                    "{} {} = {}",
                    w.name(),
                    m.name,
                    m.value
                );
            }
            // The contract's result line parses and carries every metric.
            let Value::Object(line) = serde_json::from_str::<Value>(&out.contract_json()).unwrap()
            else {
                panic!("result line is not an object");
            };
            let Some(Value::Object(metrics)) = line.get("metrics") else {
                panic!("result line has no metrics");
            };
            assert_eq!(metrics.len(), declared.len());
        }
        assert_eq!(
            value(&a, "wire_bytes_per_update_byte"),
            value(&b, "wire_bytes_per_update_byte"),
            "{}: bytes on the wire must repeat exactly",
            w.name()
        );
        assert_eq!(
            (a.attempted, a.failed),
            (b.attempted, b.failed),
            "{}",
            w.name()
        );
        assert_eq!(a.iterations, 4);
    }
}

#[test]
fn traced_runs_print_every_per_layer_metric_and_the_staged_driver_matches_the_facade() {
    let declared = names(benchmark_json().get("per_layer"));
    for w in Workload::ALL {
        let out = run(&args(w, true));
        // `correct` covers the staged-driver == facade check of every
        // iteration and the probes' round-trip checks.
        assert!(out.correct, "{}: {:?}", w.name(), out.notes);
        let printed: Vec<&str> = out.metrics.iter().map(|m| m.name).collect();
        assert_eq!(printed, declared, "{}", w.name());
        assert!(out.metrics.iter().all(|m| m.value.is_finite()));
        assert!(
            value(&out, "driver.layer_coverage_share") >= 0.9,
            "{}: layer spans cover {} of the driver's wall",
            w.name(),
            value(&out, "driver.layer_coverage_share")
        );
        assert!(value(&out, "driver.traced_iterations") >= 1.0);
        assert!(value(&out, "client.groups") > 0.0);
        let hub = matches!(w, Workload::HubShare | Workload::HubFanin);
        assert_eq!(value(&out, "multi.pump_busy_ms") > 0.0, hub, "{}", w.name());
        assert_eq!(
            value(&out, "multi.forward_groups") > 0.0,
            hub,
            "{}",
            w.name()
        );
    }
}

#[test]
fn each_workload_reaches_the_layers_it_exists_for() {
    let word = run(&args(Workload::WordSave, true));
    assert!(
        value(&word, "client.delta_msg_share") > 0.5,
        "word saves ship deltas"
    );
    assert_eq!(
        value(&word, "pipeline.frames"),
        0.0,
        "the pc link ships unframed"
    );
    assert_eq!(value(&word, "codec.compressed_frame_share"), 0.0);
    assert!(value(&word, "delta.local_diff_ns_per_byte") > 0.0);

    let chat = run(&args(Workload::WechatInplace, true));
    assert_eq!(
        value(&chat, "client.rpc_msg_share"),
        1.0,
        "page writes ship as RPC"
    );
    assert!(value(&chat, "pipeline.frames") > 0.0);
    assert!(value(&chat, "codec.compressed_frame_share") > 0.0);
    assert_eq!(
        value(&chat, "delta.local_diff_ns_per_byte"),
        0.0,
        "no transactional save"
    );

    let huge = run(&args(Workload::HugeSave, true));
    assert!(value(&huge, "client.close_ns_per_byte") > 0.0);
    assert!(value(&huge, "client.delta_msg_share") > 0.0);
    assert!(value(&huge, "pipeline.frames") > 0.0, "huge saves stream");
}

#[test]
fn traced_run_writes_a_chrome_trace() {
    let dir = scratch_dir().join(format!("smoke-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("word.trace.json");
    let mut a = args(Workload::WordSave, true);
    a.trace_out = Some(path.clone());
    let out = run(&a);
    assert!(out.correct, "{:?}", out.notes);
    let Value::Object(trace) =
        serde_json::from_str::<Value>(&std::fs::read_to_string(&path).unwrap()).unwrap()
    else {
        panic!("trace is not an object");
    };
    let Some(Value::Array(events)) = trace.get("traceEvents") else {
        panic!("no traceEvents");
    };
    assert_eq!(events.len() as f64, value(&out, "driver.spans"));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn benchmark_json_matches_the_catalogue() {
    let root = benchmark_json();
    let keys: Vec<&String> = root.iter().map(|(k, _)| k).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_eq!(
        names(root.get("workloads")),
        Workload::ALL.map(|w| w.name().to_string())
    );
    assert_eq!(
        root.get("paths"),
        Some(&Value::Array(vec![Value::String("benchmark".into())]))
    );

    let Some(Value::Array(e2e)) = root.get("end_to_end") else {
        panic!("end_to_end list");
    };
    assert_eq!(e2e.len(), END_TO_END.len());
    for (entry, m) in e2e.iter().zip(&END_TO_END) {
        let Value::Object(entry) = entry else {
            panic!("entry")
        };
        assert_eq!(entry.get("name"), Some(&Value::String(m.name.into())));
        assert_eq!(
            entry.get("unit"),
            Some(&Value::String(m.unit.into())),
            "{}",
            m.name
        );
        assert_eq!(
            entry.get("better"),
            Some(&Value::String(m.better.word().into())),
            "{}",
            m.name
        );
        assert_eq!(entry.get("bound"), Some(&Value::F64(m.bound)), "{}", m.name);
    }
    let Some(Value::Array(layers)) = root.get("per_layer") else {
        panic!("per_layer list");
    };
    assert_eq!(layers.len(), PER_LAYER.len());
    for (entry, m) in layers.iter().zip(&PER_LAYER) {
        let Value::Object(entry) = entry else {
            panic!("entry")
        };
        assert_eq!(entry.get("name"), Some(&Value::String(m.name.into())));
        assert_eq!(
            entry.get("unit"),
            Some(&Value::String(m.unit.into())),
            "{}",
            m.name
        );
        assert_eq!(
            entry.get("better"),
            Some(&Value::String(m.better.word().into())),
            "{}",
            m.name
        );
        assert_eq!(
            entry.len(),
            3,
            "{}: per-layer metrics have no bound",
            m.name
        );
    }
}
