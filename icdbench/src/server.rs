//! Building, starting and stopping the real `icdbd` daemon.

use icdb::net::{IcdbClient, RetryPolicy};
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a daemon may take to recover and answer its first `hello`.
const BOOT_TIMEOUT: Duration = Duration::from_secs(60);

/// The client policy of every benchmark connection: no retries (a
/// failure is counted, never hidden), and timeouts so a hung server
/// fails the run instead of stalling it.
pub fn client_policy() -> RetryPolicy {
    RetryPolicy {
        connect_timeout: Some(Duration::from_secs(5)),
        read_timeout: Some(Duration::from_secs(60)),
        write_timeout: Some(Duration::from_secs(60)),
        ..RetryPolicy::none()
    }
}

/// Builds `icdbd` from the repository at `root` in release mode and
/// returns the path of the executable.
///
/// # Errors
/// A failed build or a build output without the `icdbd` executable.
pub fn build_icdbd(root: &Path) -> Result<PathBuf, String> {
    let out = Command::new(std::env::var("CARGO").unwrap_or_else(|_| "cargo".into()))
        .current_dir(root)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--bin",
            "icdbd",
            "--message-format",
            "json",
        ])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !out.status.success() {
        return Err(format!("building icdbd failed ({})", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    stdout
        .lines()
        .filter(|l| l.contains("\"executable\":\"") && l.contains("icdbd"))
        .find_map(|l| {
            let rest = l.split("\"executable\":\"").nth(1)?;
            let path = &rest[..rest.find('"')?];
            path.ends_with("icdbd").then(|| PathBuf::from(path))
        })
        .ok_or_else(|| "cargo reported no icdbd executable".to_string())
}

/// A running `icdbd` child process. Dropping it kills the process and
/// waits for it.
pub struct Daemon {
    child: Child,
    /// The address the daemon listens on.
    pub addr: SocketAddr,
    /// Spawn to first successful `hello`.
    pub setup: Duration,
    log: Option<JoinHandle<Vec<String>>>,
}

impl Daemon {
    /// Starts `icdbd` on `data_dir` (durable, default fsync and
    /// group-commit policy, an ephemeral port) and waits until it answers
    /// `hello`.
    ///
    /// # Errors
    /// Spawn failures, a daemon that exits or never listens, or a failed
    /// `hello`.
    pub fn start(bin: &Path, data_dir: &Path) -> Result<Daemon, String> {
        let started = Instant::now();
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0", "--data-dir"])
            .arg(data_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let (tx, rx) = mpsc::channel();
        // Drains the daemon's log for its whole life (a full pipe would
        // block it), announcing the listen address once.
        let log = std::thread::spawn(move || {
            let mut tail = Vec::new();
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                if let Some(addr) = line
                    .contains(" listening ")
                    .then(|| line.split("addr=").nth(1))
                    .flatten()
                    .and_then(|rest| rest.split_whitespace().next())
                    .and_then(|a| a.parse::<SocketAddr>().ok())
                {
                    let _ = tx.send(addr);
                }
                tail.push(line);
                if tail.len() > 64 {
                    tail.remove(0);
                }
            }
            tail
        });
        let mut daemon = Daemon {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            setup: Duration::ZERO,
            log: Some(log),
        };
        daemon.addr = match rx.recv_timeout(BOOT_TIMEOUT) {
            Ok(addr) => addr,
            Err(_) => return Err(format!("icdbd never listened: {}", daemon.stop())),
        };
        let hello = IcdbClient::connect_with(daemon.addr, client_policy()).and_then(|mut c| {
            c.hello()?;
            Ok(c)
        });
        match hello {
            Ok(client) => {
                daemon.setup = started.elapsed();
                let _ = client.quit();
                Ok(daemon)
            }
            Err(e) => Err(format!("hello failed: {e}; {}", daemon.stop())),
        }
    }

    /// The daemon's peak resident set (`VmHWM`) in MB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        let kb: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))?
            .split_whitespace()
            .next()?
            .parse()
            .ok()?;
        Some(kb / 1024.0)
    }

    /// Kills the daemon (SIGKILL: no shutdown checkpoint, so the data
    /// directory keeps its full journal) and returns its last log lines.
    pub fn stop(&mut self) -> String {
        let _ = self.child.kill();
        let _ = self.child.wait();
        self.log
            .take()
            .and_then(|h| h.join().ok())
            .map(|tail| tail.join("\n"))
            .unwrap_or_default()
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Copies a flat data directory (snapshots and WAL files).
///
/// # Errors
/// I/O failures.
pub fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))?;
    }
    Ok(())
}
