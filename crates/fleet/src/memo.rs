//! The content-addressed on-disk memo store.
//!
//! Identical experiment replays are pure — the simulated machine has no
//! entropy beyond the point spec — so a completed point can be cached and
//! replayed for free. Layout:
//!
//! ```text
//! <root>/<epoch>/<digest>.json
//! ```
//!
//! where `<digest>` is the point's hex digest (128 bits
//! over the canonical point spec) and `<epoch>` is the [`CODE_EPOCH`] tag.
//! **Invalidation rule:** results depend on the simulator and harness
//! code, not just the spec, so any change that alters measured values must
//! bump `CODE_EPOCH` — old entries are then simply never looked up again
//! (and can be garbage-collected by deleting the old epoch directory).
//! Each entry stores its full canonical spec; a lookup whose stored spec
//! does not match byte-for-byte is treated as a miss, so even a digest
//! collision cannot alias two points. Only clean results are memoized:
//! errored and fault-injected points always re-execute.

use std::fs;
use std::path::{Path, PathBuf};

use likwid::json::JsonValue;

use crate::point::{result_from_json, result_to_json, PointResult};
use crate::spec::ExperimentPoint;

/// The code-epoch tag baked into this build. Bump on any change to the
/// simulator, harness or canonicalization that alters results (see the
/// pinned `canonical_spec_format_is_pinned` test in `likwid-workloads`).
pub const CODE_EPOCH: &str = "epoch-001";

/// A handle on one memo store root. Cheap to clone; safe to share across
/// scheduler workers (entries are written atomically via temp + rename,
/// and two workers never race on the same point).
#[derive(Debug, Clone)]
pub struct MemoStore {
    root: PathBuf,
    epoch: String,
}

impl MemoStore {
    /// Open (lazily — nothing is created until the first store) a memo
    /// store at `root`, under the given epoch tag or [`CODE_EPOCH`].
    pub fn open(root: impl Into<PathBuf>, epoch: Option<&str>) -> Self {
        MemoStore { root: root.into(), epoch: epoch.unwrap_or(CODE_EPOCH).to_string() }
    }

    /// The store's epoch tag.
    pub fn epoch(&self) -> &str {
        &self.epoch
    }

    fn entry_path(&self, digest: &str) -> PathBuf {
        self.root.join(&self.epoch).join(format!("{digest}.json"))
    }

    /// Look a point up; `Some` only for a clean hit whose stored canonical
    /// spec matches byte-for-byte.
    pub fn lookup(&self, point: &ExperimentPoint) -> Option<PointResult> {
        let digest = point.digest_hex().ok()?;
        let canonical = point.canonical().ok()?;
        let text = fs::read_to_string(self.entry_path(&digest)).ok()?;
        let doc = JsonValue::parse(&text).ok()?;
        if doc.get("spec")?.as_str()? != canonical {
            return None;
        }
        result_from_json(doc.get("result")?)
    }

    /// Memoize a clean result. Best-effort: IO errors are reported but a
    /// full disk must not fail the sweep.
    pub fn store(&self, point: &ExperimentPoint, result: &PointResult) -> std::io::Result<()> {
        let digest = point
            .digest_hex()
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e.to_string()))?;
        let canonical = point
            .canonical()
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e.to_string()))?;
        let doc = JsonValue::Obj(vec![
            ("fleet_memo".to_string(), JsonValue::UInt(1)),
            ("epoch".to_string(), JsonValue::Str(self.epoch.clone())),
            ("key".to_string(), JsonValue::Str(point.key())),
            ("spec".to_string(), JsonValue::Str(canonical)),
            ("result".to_string(), result_to_json(result)),
        ]);
        let path = self.entry_path(&digest);
        let dir = path.parent().expect("entry paths always have a parent");
        fs::create_dir_all(dir)?;
        // Atomic publish: a concurrent reader sees the old entry or the
        // new one, never a torn write.
        let tmp = dir.join(format!(".{digest}.tmp"));
        fs::write(&tmp, doc.encode() + "\n")?;
        fs::rename(&tmp, &path)
    }

    /// Enumerate the entries of this epoch as `(digest, point key)`,
    /// sorted by digest (the `ls` subcommand).
    pub fn entries(&self) -> Vec<(String, String)> {
        let dir = self.root.join(&self.epoch);
        let mut out = Vec::new();
        let Ok(listing) = fs::read_dir(&dir) else { return out };
        for entry in listing.flatten() {
            let path = entry.path();
            if path.extension().map(|e| e != "json").unwrap_or(true) {
                continue;
            }
            let digest = match path.file_stem().and_then(|s| s.to_str()) {
                Some(s) => s.to_string(),
                None => continue,
            };
            let key = fs::read_to_string(&path)
                .ok()
                .and_then(|text| JsonValue::parse(&text).ok())
                .and_then(|doc| doc.get("key")?.as_str().map(str::to_string))
                .unwrap_or_else(|| "<unreadable>".to_string());
            out.push((digest, key));
        }
        out.sort();
        out
    }

    /// The store root (for messages).
    pub fn root(&self) -> &Path {
        &self.root
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::execute;
    use crate::spec::{SeedRule, SweepSpec, ThreadsAxis, WorkloadSpec};
    use likwid_x86_machine::MachinePreset;

    fn tempdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("likwid-fleet-memo-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn points() -> Vec<ExperimentPoint> {
        let mut spec = SweepSpec::new(
            WorkloadSpec::Kernel { name: "daxpy".into(), working_set_bytes: 1 << 20, passes: 1 },
            MachinePreset::Core2Quad,
        );
        spec.threads = ThreadsAxis::Counts(vec![1, 2]);
        spec.samples = 2;
        spec.seed = SeedRule::Fixed(11);
        spec.expand().unwrap()
    }

    #[test]
    fn store_then_lookup_is_bit_identical() {
        let dir = tempdir("roundtrip");
        let store = MemoStore::open(&dir, None);
        let points = points();
        let result = execute(&points[0], &[]).expect("clean point");
        assert!(store.lookup(&points[0]).is_none(), "cold store misses");
        store.store(&points[0], &result).unwrap();
        assert_eq!(store.lookup(&points[0]), Some(result), "hit ≡ miss, bit-identically");
        assert!(store.lookup(&points[1]).is_none(), "other points still miss");
        assert_eq!(store.entries().len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn epoch_change_invalidates_without_deleting() {
        let dir = tempdir("epoch");
        let store = MemoStore::open(&dir, None);
        let points = points();
        let result = execute(&points[0], &[]).expect("clean point");
        store.store(&points[0], &result).unwrap();
        let next = MemoStore::open(&dir, Some("epoch-002"));
        assert!(next.lookup(&points[0]).is_none(), "a new epoch never reads old entries");
        assert_eq!(store.lookup(&points[0]), Some(result), "the old epoch keeps its entries");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_spec_mismatch_is_a_miss_not_a_wrong_answer() {
        let dir = tempdir("collide");
        let store = MemoStore::open(&dir, None);
        let points = points();
        let result = execute(&points[0], &[]).expect("clean point");
        store.store(&points[0], &result).unwrap();
        // Forge a colliding entry: same digest file, different stored spec.
        let digest = points[0].digest_hex().unwrap();
        let path = store.entry_path(&digest);
        let forged = fs::read_to_string(&path).unwrap().replace("daxpy", "triad");
        fs::write(&path, forged).unwrap();
        assert!(store.lookup(&points[0]).is_none(), "mismatched spec must read as a miss");
        let _ = fs::remove_dir_all(&dir);
    }
}
