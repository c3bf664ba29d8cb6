//! The `identd` binary: parse flags, start the daemon, wait for drain.

use identd::{Daemon, DaemonConfig};
use std::process::ExitCode;

const USAGE: &str = "\
identd — multi-tenant identification-as-a-service daemon

USAGE:
    identd [OPTIONS]

OPTIONS:
    --listen ADDR        listen address (default 127.0.0.1:7433; port 0 = ephemeral)
    --workers N          connection worker threads (default: available parallelism)
    --arena-mb N         accepted for compatibility and ignored (scoring caches no kernel rows)
    --batch N            closed windows per scoring batch (default 64)
    --vote-k N           trailing windows per majority vote (default 3)
    --lateness SECS      allowed out-of-order lateness (default 0)
    --max-pending N      closed-but-unscored windows per device (default 1024)
    --decision-cap N     buffered decisions per tenant before dropping (default 65536)
    --lossy              preloaded tenants tolerate partly-corrupt stores
    --tenant NAME=DIR    preload a tenant from a model-store directory (repeatable)
    --help               print this help

The daemon serves newline-delimited JSON over TCP (see the crate docs for
the verb table) and exits 0 after a client sends the drain verb and every
connection closes. Each request is served on its connection's worker
thread, which locks the tenant and runs its engine directly; requests for
one tenant take turns, and a client that sends faster than the tenant
scores is slowed by TCP backpressure. Each window is scored against the
profiles an exact candidate prefilter keeps (every profile whose decision
bound admits the window), so decisions equal exhaustive scoring bit for
bit.";

struct Args {
    config: DaemonConfig,
    tenants: Vec<(String, String)>,
    lossy: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut config = DaemonConfig { addr: "127.0.0.1:7433".to_string(), ..Default::default() };
    let mut tenants = Vec::new();
    let mut lossy = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value =
            |what: &str| args.next().ok_or_else(|| format!("{flag} needs a {what} argument"));
        match flag.as_str() {
            "--help" | "-h" => return Ok(None),
            "--lossy" => lossy = true,
            "--listen" => config.addr = value("host:port")?,
            "--workers" => config.workers = parse_num(&flag, &value("count")?)?,
            // Still parsed, so a malformed value is an error, then ignored.
            "--arena-mb" => {
                parse_num::<usize>(&flag, &value("MiB")?)?;
            }
            "--batch" => config.engine.batch_windows = parse_positive(&flag, &value("count")?)?,
            "--vote-k" => config.engine.vote_k = parse_positive(&flag, &value("count")?)?,
            "--lateness" => config.engine.lateness_secs = parse_num(&flag, &value("seconds")?)?,
            "--max-pending" => {
                config.engine.max_pending_per_device = parse_positive(&flag, &value("count")?)?
            }
            "--decision-cap" => config.decision_cap = parse_positive(&flag, &value("count")?)?,
            "--tenant" => {
                let spec = value("NAME=DIR")?;
                let (name, dir) = spec
                    .split_once('=')
                    .ok_or_else(|| format!("--tenant wants NAME=DIR, got {spec:?}"))?;
                tenants.push((name.to_string(), dir.to_string()));
            }
            other => return Err(format!("unknown flag {other:?} (try --help)")),
        }
    }
    Ok(Some(Args { config, tenants, lossy }))
}

fn parse_num<T: std::str::FromStr>(flag: &str, text: &str) -> Result<T, String> {
    text.parse().map_err(|_| format!("{flag}: not a valid number: {text:?}"))
}

fn parse_positive(flag: &str, text: &str) -> Result<usize, String> {
    let n: usize = parse_num(flag, text)?;
    if n == 0 {
        return Err(format!("{flag} must be positive"));
    }
    Ok(n)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(message) => {
            eprintln!("identd: {message}");
            return ExitCode::FAILURE;
        }
    };
    let daemon = match Daemon::start(args.config) {
        Ok(daemon) => daemon,
        Err(e) => {
            eprintln!("identd: failed to start: {e}");
            return ExitCode::FAILURE;
        }
    };
    for (name, dir) in &args.tenants {
        match daemon.load_tenant(name, dir, args.lossy) {
            Ok((profiles, 0)) => eprintln!("identd: tenant {name}: {profiles} profiles"),
            Ok((profiles, skipped)) => eprintln!(
                "identd: tenant {name}: {profiles} profiles ({skipped} unreadable, --lossy)"
            ),
            Err(e) => {
                eprintln!("identd: tenant {name}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    println!("identd listening on {}", daemon.local_addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    daemon.join();
    ExitCode::SUCCESS
}
