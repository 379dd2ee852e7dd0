//! The fleet's work claims: one lease file per claimed unit, written whole.
//!
//! Shard workers coordinate through the shared plan directory alone — no
//! server, no sockets, std only. The lease `leases/unit-<u>.lease` is the
//! only record of a claim, and it holds the owner's shard id
//! (`"<shard>\n"`). Shard `s` claims unit `u` by writing its id to a draft
//! of its own, `leases/shard-<s>.draft`, fsyncing it, hard-linking it to
//! the lease name, removing the draft and fsyncing `leases/`. The link
//! fails if the name exists, so exactly one claimant wins however many
//! race; and since the draft is durable before it is linked, a lease is
//! never visible without its owner, and is durable before its unit
//! records anything.
//!
//! A kill at any step leaves either no lease, so the unit stays claimable,
//! or a whole one, so the unit is the killed shard's to finish on resume.
//! A leftover draft may already be linked to a lease, so the next claim
//! removes it instead of truncating it. A lease that names no shard is
//! refused by name: no claim can leave one.

use std::fs::{File, OpenOptions};
use std::io::{ErrorKind, Write};
use std::path::{Path, PathBuf};

/// Handle on a plan directory's leases. Every query goes straight to the
/// filesystem, so concurrent processes need no shared in-memory state.
#[derive(Debug)]
pub struct ClaimTable {
    leases: PathBuf,
    units: usize,
}

impl ClaimTable {
    /// The leases of the plan in `dir`, which has `units` work units.
    pub fn new(dir: &Path, units: usize) -> Self {
        Self { leases: dir.join("leases"), units }
    }

    /// Try to claim work unit `unit` for `shard`. Returns `Ok(true)` iff
    /// this call linked the lease, which is durable before returning;
    /// `Ok(false)` means a lease (possibly our own, from an earlier run)
    /// already holds the unit.
    pub fn try_claim(&self, unit: usize, shard: usize) -> Result<bool, String> {
        debug_assert!(unit < self.units);
        let draft = self.leases.join(format!("shard-{shard}.draft"));
        let lease = self.lease_path(unit);
        let claim = || -> std::io::Result<bool> {
            // A kill may have left this draft linked to a lease: unlink it,
            // never truncate it.
            match std::fs::remove_file(&draft) {
                Err(e) if e.kind() != ErrorKind::NotFound => return Err(e),
                _ => {}
            }
            let mut file = OpenOptions::new().write(true).create_new(true).open(&draft)?;
            file.write_all(format!("{shard}\n").as_bytes())?;
            file.sync_all()?;
            let won = match std::fs::hard_link(&draft, &lease) {
                Ok(()) => true,
                Err(e) if e.kind() == ErrorKind::AlreadyExists => false,
                Err(e) => return Err(e),
            };
            std::fs::remove_file(&draft)?;
            File::open(&self.leases)?.sync_all()?;
            Ok(won)
        };
        claim().map_err(|e| format!("claiming {}: {e}", lease.display()))
    }

    /// Every unit's owner, in unit order: `None` where no lease exists
    /// yet. A lease whose content names no shard is an error naming it.
    pub fn owners(&self) -> Result<Vec<Option<usize>>, String> {
        (0..self.units)
            .map(|unit| {
                let lease = self.lease_path(unit);
                match std::fs::read_to_string(&lease) {
                    Ok(text) => match text.strip_suffix('\n').and_then(|s| s.parse().ok()) {
                        Some(shard) => Ok(Some(shard)),
                        None => Err(format!(
                            "lease {} names no shard (it holds {text:?}); refusing to guess \
                             who owns unit {unit}: remove the lease if no shard has recorded \
                             the unit's rows",
                            lease.display()
                        )),
                    },
                    Err(e) if e.kind() == ErrorKind::NotFound => Ok(None),
                    Err(e) => Err(format!("lease {}: {e}", lease.display())),
                }
            })
            .collect()
    }

    fn lease_path(&self, unit: usize) -> PathBuf {
        self.leases.join(format!("unit-{unit}.lease"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("emac-claims-unit-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("leases")).unwrap();
        dir
    }

    #[test]
    fn claims_are_exclusive_and_logged() {
        let dir = temp_dir("exclusive");
        let table = ClaimTable::new(&dir, 4);
        assert!(table.try_claim(2, 0).unwrap());
        assert!(!table.try_claim(2, 1).unwrap(), "second claimant loses the lease");
        assert!(table.try_claim(0, 1).unwrap());
        assert_eq!(table.owners().unwrap(), vec![Some(1), None, Some(0), None]);
        // the lease is the whole record, and no draft outlives its claim
        let leases = dir.join("leases");
        assert_eq!(std::fs::read_to_string(leases.join("unit-2.lease")).unwrap(), "0\n");
        assert_eq!(std::fs::read_dir(&leases).unwrap().count(), 2);

        // a lease naming no shard is refused by name, whatever it holds
        for text in ["", "1", "x\n", "1\n2\n"] {
            std::fs::write(leases.join("unit-3.lease"), text).unwrap();
            let err = table.owners().unwrap_err();
            assert!(err.contains("unit-3.lease") && err.contains("names no shard"), "{err}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn racing_claimants_each_unit_claimed_exactly_once() {
        let dir = temp_dir("race");
        let units = 16;
        let winners: Vec<Vec<usize>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|shard| {
                    let dir = &dir;
                    scope.spawn(move || {
                        let table = ClaimTable::new(dir, units);
                        (0..units).filter(|&u| table.try_claim(u, shard).unwrap()).collect()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut claimed: Vec<usize> = winners.iter().flatten().copied().collect();
        claimed.sort_unstable();
        assert_eq!(claimed, (0..units).collect::<Vec<_>>(), "every unit exactly once");
        // each lease names the claimant that won it
        let owners = ClaimTable::new(&dir, units).owners().unwrap();
        for (shard, units) in winners.iter().enumerate() {
            for &u in units {
                assert_eq!(owners[u], Some(shard));
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
