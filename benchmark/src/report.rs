//! How a run is printed and stored.

use crate::bench::RunResult;
use crate::json::Value;

fn metrics_json(r: &RunResult) -> Value {
    Value::Obj(
        r.metrics
            .iter()
            .map(|m| {
                let entry = Value::obj(vec![
                    ("value", Value::Num(m.value)),
                    ("unit", Value::str(m.unit)),
                ]);
                (m.name.to_string(), entry)
            })
            .collect(),
    )
}

/// The object a run prints as the last line of its standard output.
pub fn contract_line(r: &RunResult) -> String {
    Value::obj(vec![
        ("correct", Value::Bool(r.correct())),
        ("attempted", Value::Num(r.attempted as f64)),
        ("failed", Value::Num(r.failed as f64)),
        ("metrics", metrics_json(r)),
    ])
    .to_string()
}

/// Everything a run knows, for `--out` and the `run` subcommand.
pub fn full_json(r: &RunResult) -> Value {
    Value::obj(vec![
        ("workload", Value::str(r.workload.name())),
        ("traced", Value::Bool(r.traced)),
        ("correct", Value::Bool(r.correct())),
        ("attempted", Value::Num(r.attempted as f64)),
        ("failed", Value::Num(r.failed as f64)),
        ("sim_ops", Value::Num(r.sim_ops as f64)),
        ("sim_digest", Value::str(format!("{:016x}", r.sim_digest))),
        (
            "first_error",
            r.first_error.clone().map_or(Value::Null, Value::Str),
        ),
        ("metrics", metrics_json(r)),
        (
            "shares",
            Value::Obj(
                r.shares
                    .iter()
                    .map(|(name, share)| (name.to_string(), Value::Num(*share)))
                    .collect(),
            ),
        ),
    ])
}

/// Shares of op time the issue predicted before anything was measured, per
/// workload: `(span name, predicted share)`. Printed beside the measured
/// shares; a miss of more than ten points is discussed in `README.md`.
pub fn predicted_shares(workload: &str) -> &'static [(&'static str, f64)] {
    match workload {
        "small_hinted" => &[
            ("core.tunnel.build_onion", 0.30),
            ("core.netdrive.drive", 0.47),
            ("crypto.onion.peel", 0.20),
            ("core.tha.deploy", 0.19),
        ],
        "small_routed" => &[("core.netdrive.drive", 0.65)],
        "retrieve_2mb" => &[
            ("crypto.cipher.file_seal", 0.39),
            ("crypto.cipher.file_open", 0.39),
            ("crypto.pki.keygen", 0.03),
            ("crypto.pki.box_seal", 0.03),
            ("crypto.pki.box_open", 0.02),
        ],
        "striped_lossy" => &[
            ("core.multipath.send", 0.89),
            ("core.tha.deploy", 0.08),
            ("core.multipath.form", 0.02),
        ],
        "churn_repair" => &[
            ("pastry.storage.repair_join", 0.35),
            ("pastry.overlay.join", 0.19),
            ("pastry.overlay.leave", 0.15),
            ("pastry.storage.repair_leave", 0.06),
            ("core.netdrive.drive", 0.20),
            ("core.tunnel.build_onion", 0.04),
        ],
        _ => &[],
    }
}

/// The human-readable part of a run's output.
pub fn print_human(r: &RunResult) {
    println!(
        "workload {}  pass {}  attempted {}  failed {}  sim_ops {}  sim_digest {:016x}",
        r.workload.name(),
        if r.traced { "traced" } else { "untraced" },
        r.attempted,
        r.failed,
        r.sim_ops,
        r.sim_digest
    );
    if let Some(e) = &r.first_error {
        println!("first failure: {e}");
    }
    for m in &r.metrics {
        println!("  {:<46} {:>16.4} {}", m.name, m.value, m.unit);
    }
    if r.traced {
        let predicted = predicted_shares(r.workload.name());
        println!("  share of op time (shadows taken out)        measured  predicted");
        for (name, share) in &r.shares {
            let p = predicted.iter().find(|(n, _)| n == name);
            let p = p.map_or("     -".to_string(), |(_, p)| {
                format!("{:>5.1}%", p * 100.0)
            });
            println!("  {:<42} {:>8.1}%  {p}", name, share * 100.0);
        }
    }
}
