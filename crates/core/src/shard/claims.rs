//! The fleet's work-claim table: `O_EXCL` lease files + an append-only log.
//!
//! Shard workers coordinate through the shared plan directory alone — no
//! server, no sockets, std only. A worker claims work unit `u` by
//! *creating* `leases/unit-<u>.lease` with `create_new` (`O_EXCL`): the
//! filesystem makes exactly one creator win, however many workers race.
//! The winner then appends one durable `claim <unit> <shard>` record to
//! `claims.log`, a readable audit trail kept as a [journal]. Concurrent
//! workers open that log, so unlike a checkpoint it is created with
//! `O_EXCL`, appended with single-write `O_APPEND` lines, and a header
//! torn while `emac shard plan` created it is refused by name, never
//! rewritten.
//!
//! The lease is authoritative; the log is the record merge reads. A crash
//! between the two leaves a lease without a log line — the owner restores
//! the line on resume ([`ClaimTable::ensure_logged`]), and
//! `shard::merge` falls back to lease ownership for units the log
//! missed, so no claim is ever lost or doubled.

use std::fs::OpenOptions;
use std::io::Write;
use std::path::{Path, PathBuf};

use crate::journal::{self, Header, Journal};

const HEADER: Header = Header {
    magic: "emac-shard-claims v1",
    noun: "shard claim log",
    count: "units",
    count_name: "unit count",
    changed: "this claim log belongs to a different plan",
};

/// Handle on a plan directory's claim state. Every query goes straight to
/// the filesystem, so concurrent processes need no shared in-memory
/// state.
#[derive(Debug)]
pub struct ClaimTable {
    dir: PathBuf,
    digest: u64,
    units: usize,
    log: Journal,
}

impl ClaimTable {
    /// Create the claim log and lease directory inside `dir` for a plan of
    /// `units` work units digesting to `digest`. Fails if a claim log
    /// already exists (a plan directory is initialised exactly once).
    pub fn create(dir: &Path, digest: u64, units: usize) -> Result<Self, String> {
        std::fs::create_dir_all(dir.join("leases"))
            .map_err(|e| format!("claim table {}: {e}", dir.display()))?;
        let log = Journal::create_new(&dir.join("claims.log"), &HEADER, digest, units)?;
        Ok(Self { dir: dir.to_path_buf(), digest, units, log })
    }

    /// Open an existing claim table, verifying its header against this
    /// plan (`digest`, `units`) and cutting a torn trailing line.
    pub fn open(dir: &Path, digest: u64, units: usize) -> Result<Self, String> {
        let path = dir.join("claims.log");
        let log = Journal::open(&path, &HEADER, digest, units, &mut |line| {
            parse_claim(line, units).map(drop)
        })?
        .ok_or_else(|| torn(&path))?;
        Ok(Self { dir: dir.to_path_buf(), digest, units, log })
    }

    /// Try to claim work unit `unit` for `shard`. Returns `Ok(true)` iff
    /// this call won the lease — the `O_EXCL` create is the atomic claim;
    /// the log line is durable before returning. `Ok(false)` means another
    /// claim (possibly our own, from an earlier run) already holds the
    /// lease.
    pub fn try_claim(&self, unit: usize, shard: usize) -> Result<bool, String> {
        debug_assert!(unit < self.units);
        let lease = self.lease_path(unit);
        let mut file = match OpenOptions::new().write(true).create_new(true).open(&lease) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => return Ok(false),
            Err(e) => return Err(format!("lease {}: {e}", lease.display())),
        };
        file.write_all(format!("{shard}\n").as_bytes())
            .and_then(|()| file.sync_all())
            .map_err(|e| format!("lease {}: {e}", lease.display()))?;
        self.log.append([format_args!("claim {unit} {shard}")])?;
        Ok(true)
    }

    /// Which shard holds the lease on `unit`, if any. A lease whose
    /// content is torn (kill between create and write) reads as owned by
    /// no one until its creator rewrites it — merge treats that unit as
    /// unfinished work of unknown ownership and refuses.
    pub fn lease_owner(&self, unit: usize) -> Result<Option<usize>, String> {
        let lease = self.lease_path(unit);
        match std::fs::read_to_string(&lease) {
            Ok(text) => Ok(text.strip_suffix('\n').and_then(|s| s.parse::<usize>().ok())),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(format!("lease {}: {e}", lease.display())),
        }
    }

    /// Restore the log line for a lease this shard already holds — the
    /// crash-between-lease-and-log repair. Re-reads the log and appends
    /// only if the line is missing, so it is idempotent across resumes.
    /// Returns whether a line was actually restored (false when the log
    /// already held the claim) — the observability layer records a
    /// lease-repair event exactly for true returns.
    pub fn ensure_logged(&self, unit: usize, shard: usize) -> Result<bool, String> {
        if self.claims()?.contains(&(unit, shard)) {
            return Ok(false);
        }
        // A torn lease content is also repaired here: the owner is the
        // only process that ever calls this for `unit`.
        let lease = self.lease_path(unit);
        if self.lease_owner(unit)?.is_none() {
            let mut file = OpenOptions::new()
                .write(true)
                .truncate(true)
                .open(&lease)
                .map_err(|e| format!("lease {}: {e}", lease.display()))?;
            file.write_all(format!("{shard}\n").as_bytes())
                .and_then(|()| file.sync_all())
                .map_err(|e| format!("lease {}: {e}", lease.display()))?;
        }
        self.log.append([format_args!("claim {unit} {shard}")])?;
        Ok(true)
    }

    /// The logged claims as `(unit, shard)` pairs in append order, torn
    /// trailing line ignored.
    pub fn claims(&self) -> Result<Vec<(usize, usize)>, String> {
        let path = self.dir.join("claims.log");
        let mut claims = Vec::new();
        let present = journal::read(&path, &HEADER, self.digest, self.units, &mut |line| {
            claims.push(parse_claim(line, self.units)?);
            Ok(())
        })?;
        if !present {
            return Err(torn(&path));
        }
        Ok(claims)
    }

    fn lease_path(&self, unit: usize) -> PathBuf {
        self.dir.join("leases").join(format!("unit-{unit}.lease"))
    }
}

/// Parse one `claim <unit> <shard>` record.
fn parse_claim(line: &str, units: usize) -> Result<(usize, usize), String> {
    let malformed = || format!("malformed claim line {line:?}");
    let mut fields = line.strip_prefix("claim ").ok_or_else(malformed)?.split(' ');
    let unit: usize = fields.next().and_then(|t| t.parse().ok()).ok_or_else(malformed)?;
    let shard: usize = fields.next().and_then(|t| t.parse().ok()).ok_or_else(malformed)?;
    if fields.next().is_some() {
        return Err(malformed());
    }
    if unit >= units {
        return Err(format!("claim for unit {unit} of a {units}-unit plan"));
    }
    Ok((unit, shard))
}

/// The refusal for a claim log that is missing or torn inside its header:
/// `emac shard plan` was killed while creating it.
fn torn(path: &Path) -> String {
    format!(
        "shard claim log {} is missing or torn inside its header: the plan directory was \
         never fully created; plan again into a fresh directory",
        path.display()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("emac-claims-unit-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn claims_are_exclusive_and_logged() {
        let dir = temp_dir("exclusive");
        let table = ClaimTable::create(&dir, 0xbeef, 4).unwrap();
        assert!(table.try_claim(2, 0).unwrap());
        assert!(!table.try_claim(2, 1).unwrap(), "second claimant loses the lease");
        assert!(table.try_claim(0, 1).unwrap());
        assert_eq!(table.claims().unwrap(), vec![(2, 0), (0, 1)]);
        assert_eq!(table.lease_owner(2).unwrap(), Some(0));
        assert_eq!(table.lease_owner(3).unwrap(), None);
        // reopen validates the header; a different digest is refused
        ClaimTable::open(&dir, 0xbeef, 4).unwrap();
        let err = ClaimTable::open(&dir, 0xdead, 4).unwrap_err();
        assert!(err.contains("digest mismatch"), "{err}");
        let err = ClaimTable::open(&dir, 0xbeef, 5).unwrap_err();
        assert!(err.contains("unit count mismatch"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn racing_claimants_each_unit_claimed_exactly_once() {
        let dir = temp_dir("race");
        let units = 16;
        let table = ClaimTable::create(&dir, 0x5eed, units).unwrap();
        let winners: Vec<Vec<usize>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|shard| {
                    let dir = &dir;
                    scope.spawn(move || {
                        let table = ClaimTable::open(dir, 0x5eed, units).unwrap();
                        (0..units).filter(|&u| table.try_claim(u, shard).unwrap()).collect()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut claimed: Vec<usize> = winners.into_iter().flatten().collect();
        claimed.sort_unstable();
        assert_eq!(claimed, (0..units).collect::<Vec<_>>(), "every unit exactly once");
        // the log agrees with the leases
        let log = table.claims().unwrap();
        assert_eq!(log.len(), units);
        for (u, s) in log {
            assert_eq!(table.lease_owner(u).unwrap(), Some(s));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ensure_logged_restores_a_lost_log_line_once() {
        let dir = temp_dir("ensure");
        let table = ClaimTable::create(&dir, 0xf00d, 3).unwrap();
        // simulate a crash between lease create and log append
        std::fs::write(dir.join("leases").join("unit-1.lease"), "0\n").unwrap();
        assert!(!table.try_claim(1, 0).unwrap(), "lease already held");
        assert_eq!(table.claims().unwrap(), vec![]);
        assert!(table.ensure_logged(1, 0).unwrap(), "first call restores the line");
        assert!(!table.ensure_logged(1, 0).unwrap(), "idempotent");
        assert_eq!(table.claims().unwrap(), vec![(1, 0)]);

        // a torn lease content (kill mid-write) is rewritten by its owner
        std::fs::write(dir.join("leases").join("unit-2.lease"), "").unwrap();
        assert_eq!(table.lease_owner(2).unwrap(), None);
        table.ensure_logged(2, 1).unwrap();
        assert_eq!(table.lease_owner(2).unwrap(), Some(1));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
