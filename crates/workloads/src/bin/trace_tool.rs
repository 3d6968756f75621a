//! Export the built-in evaluation traces as JSON, or summarize a recorded
//! trace file.
//!
//! ```text
//! trace_tool export gedit --scale 0.2 > gedit.json
//! trace_tool info gedit.json
//! ```

#![forbid(unsafe_code)]

use deltacfs_workloads::{
    AppendTrace, GeditTrace, RandomWriteTrace, RecordedTrace, Trace, TraceConfig, TraceOp,
    WeChatTrace, WordTrace,
};

fn builtin(name: &str, cfg: TraceConfig) -> Option<Box<dyn Trace>> {
    Some(match name {
        "append" => Box::new(AppendTrace::new(cfg)),
        "random" => Box::new(RandomWriteTrace::new(cfg)),
        "word" => Box::new(WordTrace::new(cfg)),
        "wechat" => Box::new(WeChatTrace::new(cfg)),
        "gedit" => Box::new(GeditTrace::new(cfg)),
        _ => return None,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("export") => {
            let name = args
                .get(1)
                .unwrap_or_else(|| die("export needs a trace name"));
            let scale = args
                .iter()
                .position(|a| a == "--scale")
                .and_then(|i| args.get(i + 1))
                .and_then(|s| s.parse().ok())
                .unwrap_or(0.05);
            let trace = builtin(name, TraceConfig::scaled(scale))
                .unwrap_or_else(|| die(&format!("unknown trace {name}")));
            println!("{}", RecordedTrace::capture(trace.as_ref()).to_json());
        }
        Some("info") => {
            let path = args.get(1).unwrap_or_else(|| die("info needs a file"));
            let json = std::fs::read_to_string(path)
                .unwrap_or_else(|e| die(&format!("reading {path}: {e}")));
            let trace = RecordedTrace::from_json(&json)
                .unwrap_or_else(|e| die(&format!("parsing {path}: {e}")));
            let ops = trace.ops();
            let written: u64 = ops
                .iter()
                .map(|o| match &o.op {
                    TraceOp::Write { data, .. } => data.len() as u64,
                    _ => 0,
                })
                .sum();
            println!("{}", trace.meta().description);
            println!("operations:    {}", ops.len());
            println!("bytes written: {written}");
            println!(
                "duration:      {:.1} s",
                ops.last().map(|o| o.at_ms as f64 / 1000.0).unwrap_or(0.0)
            );
        }
        _ => die(
            "usage: trace_tool export <append|random|word|wechat|gedit> [--scale F] | info <file>",
        ),
    }
}

fn die(msg: &str) -> ! {
    eprintln!("trace_tool: {msg}");
    std::process::exit(2);
}
