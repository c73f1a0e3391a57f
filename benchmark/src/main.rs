//! `tap-bench` command line.
//!
//! ```text
//! tap-bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--ops <n>] [--nodes <n>] [--out <file>] [--trace-out <file>]
//! tap-bench run --out <file> [--seed <n>] [--seconds <s>] [--only <name>]
//!           [--ops <n>] [--nodes <n>]
//! tap-bench compare <base.json>[,<base2.json>...] <new.json>[,...] [--bounds <BENCHMARK.json>]
//! ```
//!
//! The first form is one run of one workload in this process; its last line
//! of output is the result object the benchmark contract asks for. `run`
//! starts that form once per workload and pass (a process each, so that peak
//! memory is per workload), and stamps the collected results with the
//! environment.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use tap_bench::alloc::CountingAlloc;
use tap_bench::bench::{self, Config};
use tap_bench::json::{self, Value};
use tap_bench::workloads::Workload;
use tap_bench::{compare, report};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Seed of the committed reference numbers.
const DEFAULT_SEED: u64 = 20040815;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run_all(&args[1..]),
        Some("compare") => compare_files(&args[1..]),
        _ => run_one(&args),
    };
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("tap-bench: {e}");
            eprintln!("usage: tap-bench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            eprintln!(
                "       tap-bench run --out <file> [--seed <n>] [--seconds <s>] [--only <name>]"
            );
            eprintln!(
                "       tap-bench compare <base.json>[,...] <new.json>[,...] [--bounds <file>]"
            );
            ExitCode::from(2)
        }
    }
}

/// `--flag value` pairs and the positional arguments around them.
struct Flags {
    pairs: Vec<(String, String)>,
    positional: Vec<String>,
}

impl Flags {
    fn parse(args: &[String], known: &[&str]) -> Result<Flags, String> {
        let mut flags = Flags {
            pairs: Vec::new(),
            positional: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                if !known.contains(&name) {
                    return Err(format!("unknown flag --{name}"));
                }
                let v = it.next().ok_or(format!("--{name} needs a value"))?;
                flags.pairs.push((name.to_string(), v.clone()));
            } else {
                flags.positional.push(a.clone());
            }
        }
        Ok(flags)
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    fn num<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.get(name)
            .map(|v| {
                v.parse::<T>()
                    .map_err(|_| format!("--{name}: cannot read '{v}'"))
            })
            .transpose()
    }
}

fn run_one(args: &[String]) -> Result<ExitCode, String> {
    let f = Flags::parse(
        args,
        &[
            "workload",
            "seed",
            "seconds",
            "trace",
            "ops",
            "nodes",
            "out",
            "trace-out",
        ],
    )?;
    if !f.positional.is_empty() {
        return Err(format!("unexpected argument '{}'", f.positional[0]));
    }
    let name = f.get("workload").ok_or("--workload is required")?;
    let workload = Workload::from_name(name).ok_or_else(|| {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload '{name}' (one of {})", names.join(", "))
    })?;
    let mut cfg = Config::new(workload, f.num("seed")?.unwrap_or(DEFAULT_SEED));
    if let Some(s) = f.num::<f64>("seconds")? {
        if !(s.is_finite() && s > 0.0) {
            return Err("--seconds must be positive".into());
        }
        cfg.seconds = s;
    }
    cfg.trace = match f.get("trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace takes 0 or 1, not '{other}'")),
    };
    cfg.ops = f.num("ops")?;
    if cfg.ops == Some(0) {
        return Err("--ops must be at least 1".into());
    }
    if let Some(n) = f.num::<usize>("nodes")? {
        if n < 100 {
            return Err("--nodes must be at least 100".into());
        }
        cfg.nodes = n;
    }

    let result = bench::run(&cfg);
    report::print_human(&result);
    if let Some(path) = f.get("out") {
        write_file(Path::new(path), &report::full_json(&result).to_string())?;
    }
    if let (Some(path), Some(spans)) = (f.get("trace-out"), &result.trace_json) {
        write_file(Path::new(path), spans)?;
    }
    println!("{}", report::contract_line(&result));
    Ok(ExitCode::SUCCESS)
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn read_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Every workload, untraced pass then traced pass, a process each.
fn run_all(args: &[String]) -> Result<ExitCode, String> {
    let f = Flags::parse(args, &["seed", "seconds", "only", "ops", "nodes", "out"])?;
    let out = PathBuf::from(f.get("out").ok_or("run: --out is required")?);
    let dir = out
        .parent()
        .filter(|d| !d.as_os_str().is_empty())
        .unwrap_or(Path::new("."));
    let seed = f.get("seed").map_or(DEFAULT_SEED.to_string(), String::from);
    let workloads: Vec<Workload> = match f.get("only") {
        Some(name) => vec![Workload::from_name(name).ok_or(format!("unknown workload '{name}'"))?],
        None => Workload::ALL.to_vec(),
    };
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;

    let mut all_correct = true;
    let mut per_workload = Vec::new();
    for w in workloads {
        let mut passes = Vec::new();
        for trace in ["0", "1"] {
            let pass_out = dir.join(format!("{}.pass{trace}.json", w.name()));
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w.name(), "--seed", &seed, "--trace", trace]);
            cmd.arg("--out").arg(&pass_out);
            for flag in ["seconds", "ops", "nodes"] {
                if let Some(v) = f.get(flag) {
                    cmd.arg(format!("--{flag}")).arg(v);
                }
            }
            if trace == "1" {
                cmd.arg("--trace-out")
                    .arg(dir.join(format!("{}.trace.json", w.name())));
            }
            let status = cmd
                .status()
                .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
            if !status.success() {
                return Err(format!("{} pass {trace} exited with {status}", w.name()));
            }
            passes.push(read_json(&pass_out)?);
        }
        let (plain, traced) = (&passes[0], &passes[1]);
        let field = |v: &Value, k: &str| v.get(k).cloned().unwrap_or(Value::Null);
        all_correct &= [plain, traced]
            .iter()
            .all(|p| p.get("correct").and_then(Value::as_bool) == Some(true));
        per_workload.push((
            w.name().to_string(),
            Value::obj(vec![
                ("attempted", field(plain, "attempted")),
                ("failed", field(plain, "failed")),
                ("sim_ops", field(plain, "sim_ops")),
                ("sim_digest", field(plain, "sim_digest")),
                ("end_to_end", field(plain, "metrics")),
                ("traced_attempted", field(traced, "attempted")),
                ("traced_failed", field(traced, "failed")),
                ("traced_sim_digest", field(traced, "sim_digest")),
                ("per_layer", field(traced, "metrics")),
                ("shares", field(traced, "shares")),
            ]),
        ));
    }
    let defaults = Config::new(Workload::SmallHinted, 0);
    let setting =
        |flag: &str, default: String| Value::str(f.get(flag).map_or(default, String::from));
    let result = Value::obj(vec![
        ("schema", Value::Num(1.0)),
        (
            "env",
            environment(vec![
                ("seed", Value::str(seed.clone())),
                ("seconds", setting("seconds", defaults.seconds.to_string())),
                (
                    "ops",
                    setting("ops", "until --seconds and the sim prefix are done".into()),
                ),
                ("nodes", setting("nodes", defaults.nodes.to_string())),
            ]),
        ),
        ("workloads", Value::Obj(per_workload)),
    ]);
    write_file(&out, &result.to_string())?;
    println!("wrote {}", out.display());
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Where and from what the numbers were taken: the stamp `BENCH_sim.json`
/// never had. `settings` are the run's own flags.
fn environment(settings: Vec<(&str, Value)>) -> Value {
    let git_dirty = first_line("git", &["status", "--porcelain"]).map(|l| !l.is_empty());
    let or_unknown = |line: Option<String>| Value::str(line.unwrap_or_else(|| "unknown".into()));
    let mut fields = vec![
        (
            "git_sha",
            or_unknown(first_line("git", &["rev-parse", "HEAD"])),
        ),
        ("git_dirty", git_dirty.map_or(Value::Null, Value::Bool)),
        ("rustc", or_unknown(first_line("rustc", &["-V"]))),
        (
            "nproc",
            Value::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        ("cpu_model", Value::str(cpu_model())),
        (
            "profile",
            Value::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
    ];
    fields.extend(settings);
    Value::obj(fields)
}

/// First line of a command's output (empty if it printed nothing), `None` if
/// it cannot run or fails.
fn first_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status.success().then(|| {
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()
            .unwrap_or("")
            .to_string()
    })
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn compare_files(args: &[String]) -> Result<ExitCode, String> {
    let f = Flags::parse(args, &["bounds"])?;
    let [base, new] = f.positional.as_slice() else {
        return Err("compare takes two result files (or two comma-separated lists)".into());
    };
    let load = |list: &str| {
        list.split(',')
            .map(|p| read_json(Path::new(p)))
            .collect::<Result<Vec<_>, _>>()
    };
    let bounds = read_json(Path::new(f.get("bounds").unwrap_or("BENCHMARK.json")))?;
    let (table, bad) = compare::compare(&bounds, &load(base)?, &load(new)?)?;
    print!("{table}");
    Ok(if bad {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}
