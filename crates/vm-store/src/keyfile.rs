//! Persistence for the server's RSA signing key (`<dir>/signing.key`).
//!
//! Virtual cash verifies against the key that minted it, so the key
//! must outlive any single process: a restarted cell — or a follower
//! promoted after its primary died — that generated a fresh key would
//! orphan every outstanding unit. [`crate::PersistentServer::open`]
//! loads the key from here on reopen and persists a newly generated
//! one on first boot, retiring the old `FreshSigningKey` limitation
//! for directories that have one.
//!
//! Format (all integers little-endian):
//!
//! ```text
//! magic "VMKEY001" (8 B)
//! | n_len u32 | n big-endian bytes      modulus
//! | e_len u32 | e big-endian bytes      public exponent
//! | d_len u32 | d big-endian bytes      private exponent
//! | checksum64 u64                      over every preceding byte
//! ```
//!
//! The file holds `(n, e, d)` only. CRT signing also needs the primes
//! `p` and `q`; [`load`] derives them from `(n, e, d)` at load time
//! (`RsaKeyPair::from_parts`, about two full-size exponentiations), so
//! the format has not changed since `VMKEY001` and a file written before
//! CRT signing loads and signs identically.
//!
//! Writes are atomic (temp file + rename), so a crash mid-save leaves
//! either the old key or the new one, never a torn file. A present but
//! unreadable keyfile is a **loud error**, not a silent regenerate:
//! minting under a surprise fresh key is exactly the failure this
//! module exists to prevent. A `d` that does not factor its `n` is such
//! an error too.

use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use vm_crypto::{checksum64, BigUint, RsaKeyPair, RsaPublicKey};

/// File name of the persisted signing key inside a store directory.
pub const KEYFILE_NAME: &str = "signing.key";

const KEYFILE_MAGIC: [u8; 8] = *b"VMKEY001";

/// Path of the keyfile inside `dir`.
pub fn keyfile_path(dir: &Path) -> PathBuf {
    dir.join(KEYFILE_NAME)
}

fn push_part(out: &mut Vec<u8>, bytes: &[u8]) {
    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(bytes);
}

fn corrupt(path: &Path, what: &str) -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        format!(
            "signing keyfile {} is corrupt ({what}) — refusing to generate a fresh key over it; \
             restore the keyfile from backup or delete it to consciously re-key",
            path.display()
        ),
    )
}

/// Serialize `key` to its keyfile bytes.
fn encode(key: &RsaKeyPair) -> Vec<u8> {
    let mut out = Vec::with_capacity(256);
    out.extend_from_slice(&KEYFILE_MAGIC);
    push_part(&mut out, &key.public().modulus().to_bytes_be());
    push_part(&mut out, &key.public().exponent().to_bytes_be());
    push_part(&mut out, &key.private_exponent().to_bytes_be());
    let sum = checksum64(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// Persist `key` as `<dir>/signing.key`, atomically (temp + rename +
/// directory-entry durability via fsync on the temp file).
pub fn save(dir: &Path, key: &RsaKeyPair) -> std::io::Result<()> {
    let bytes = encode(key);
    let tmp = dir.join(format!("{KEYFILE_NAME}.tmp.{}", std::process::id()));
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(&bytes)?;
        f.sync_data()?;
    }
    std::fs::rename(&tmp, keyfile_path(dir))
}

/// Load the signing key from `<dir>/signing.key`.
///
/// `Ok(None)` means no keyfile exists (first boot, or a pre-keyfile
/// directory). A keyfile that exists but fails any check — magic, part
/// framing, checksum, or a private exponent that does not factor the
/// modulus — is an error: see the module docs.
pub fn load(dir: &Path) -> std::io::Result<Option<RsaKeyPair>> {
    let path = keyfile_path(dir);
    let mut data = Vec::new();
    match std::fs::File::open(&path) {
        Ok(mut f) => f.read_to_end(&mut data)?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    if data.len() < KEYFILE_MAGIC.len() + 8 || data[..8] != KEYFILE_MAGIC {
        return Err(corrupt(&path, "bad magic or short file"));
    }
    let (body, sum_bytes) = data.split_at(data.len() - 8);
    let stored = u64::from_le_bytes(sum_bytes.try_into().expect("8 bytes"));
    if checksum64(body) != stored {
        return Err(corrupt(&path, "checksum mismatch"));
    }
    let mut off = KEYFILE_MAGIC.len();
    let mut part = |what: &str| -> std::io::Result<BigUint> {
        let len_bytes = body
            .get(off..off + 4)
            .ok_or_else(|| corrupt(&path, what))?
            .try_into()
            .expect("4 bytes");
        let len = u32::from_le_bytes(len_bytes) as usize;
        let bytes = body
            .get(off + 4..off + 4 + len)
            .ok_or_else(|| corrupt(&path, what))?;
        off += 4 + len;
        Ok(BigUint::from_bytes_be(bytes))
    };
    let n = part("modulus part torn")?;
    let e = part("exponent part torn")?;
    let d = part("private part torn")?;
    if off != body.len() {
        return Err(corrupt(&path, "trailing bytes"));
    }
    RsaKeyPair::from_parts(RsaPublicKey::from_parts(n, e), d)
        .map(Some)
        .map_err(|_| corrupt(&path, "private exponent does not factor the modulus"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    struct TempDir(PathBuf);
    impl TempDir {
        fn new(tag: &str) -> TempDir {
            let dir =
                std::env::temp_dir().join(format!("vm_store_keyfile_{tag}_{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            TempDir(dir)
        }
    }
    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn save_load_roundtrip() {
        let tmp = TempDir::new("roundtrip");
        assert!(load(&tmp.0).unwrap().is_none(), "no keyfile yet");
        let mut rng = StdRng::seed_from_u64(11);
        let key = RsaKeyPair::generate(&mut rng, 512);
        save(&tmp.0, &key).unwrap();
        let back = load(&tmp.0).unwrap().expect("keyfile present");
        assert_eq!(back, key);
        // Overwrite with a different key: last save wins.
        let key2 = RsaKeyPair::generate(&mut rng, 512);
        save(&tmp.0, &key2).unwrap();
        assert_eq!(load(&tmp.0).unwrap().unwrap(), key2);
    }

    #[test]
    fn corrupt_keyfiles_error_loudly() {
        let tmp = TempDir::new("corrupt");
        let mut rng = StdRng::seed_from_u64(12);
        let key = RsaKeyPair::generate(&mut rng, 512);
        save(&tmp.0, &key).unwrap();
        let good = std::fs::read(keyfile_path(&tmp.0)).unwrap();

        // Flipped byte in the body: checksum catches it.
        let mut bad = good.clone();
        bad[KEYFILE_MAGIC.len() + 6] ^= 0xff;
        std::fs::write(keyfile_path(&tmp.0), &bad).unwrap();
        assert!(load(&tmp.0).is_err());

        // Truncated file.
        std::fs::write(keyfile_path(&tmp.0), &good[..good.len() / 2]).unwrap();
        assert!(load(&tmp.0).is_err());

        // Wrong magic.
        let mut bad = good.clone();
        bad[0] ^= 0x20;
        std::fs::write(keyfile_path(&tmp.0), &bad).unwrap();
        assert!(load(&tmp.0).is_err());

        // The error tells the operator what to do, and never silently
        // regenerates.
        std::fs::write(keyfile_path(&tmp.0), &good[..good.len() / 2]).unwrap();
        let err = load(&tmp.0).unwrap_err();
        assert!(err.to_string().contains("refusing"), "{err}");

        // A well-formed file whose d is off by one: loud, never a re-key.
        let mut d = key.private_exponent().to_bytes_be();
        *d.last_mut().unwrap() ^= 1;
        let mut body = KEYFILE_MAGIC.to_vec();
        push_part(&mut body, &key.public().modulus().to_bytes_be());
        push_part(&mut body, &key.public().exponent().to_bytes_be());
        push_part(&mut body, &d);
        let sum = checksum64(&body);
        body.extend_from_slice(&sum.to_le_bytes());
        std::fs::write(keyfile_path(&tmp.0), &body).unwrap();
        let err = load(&tmp.0).unwrap_err();
        assert!(err.to_string().contains("does not factor"), "{err}");
    }

    fn unhex(hex: &str) -> Vec<u8> {
        (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
            .collect()
    }

    /// A keyfile written before CRT signing — `save` of
    /// `generate(seed 11, 512)` — and that key's signature over
    /// `fdh("pre-restart cash")`.
    const OLD_KEYFILE: &str = "564d4b455930303140000000aa91cd0742535b07706f7d124d106fe1b97550947ea1e9f05fc0400ee8acf382a9a9131a8c16e4534b05be84fce390e3f1f9bf5f7d03641d98889c19dee8ff9903000000010001400000000c1eda33e6d9a7814ad3114f289cbf6689d83546a80cf763b65a21f32d4384f6294056d1b75bf922e0c86594666a5d3ee2965d95d2fd1899e503fca0e0f8d38158265b4baf269ff7";
    const OLD_SIGNATURE: &str = "68edb6f88b5abe14a2a1a8012fee28a9e86822529bed9090d25bacbfe1c4075a9ae73c22ce97bc5926d6f2708ca07a201052098a3e744ff7bd48ef2e8510517a";

    #[test]
    fn keyfile_from_before_crt_loads_and_signs_identically() {
        let tmp = TempDir::new("old_format");
        std::fs::write(keyfile_path(&tmp.0), unhex(OLD_KEYFILE)).unwrap();
        let loaded = load(&tmp.0).unwrap().expect("keyfile present");
        let key = RsaKeyPair::generate(&mut StdRng::seed_from_u64(11), 512);
        assert_eq!(loaded, key);
        assert_eq!(encode(&loaded), unhex(OLD_KEYFILE));
        let hashed = loaded.public().fdh(b"pre-restart cash");
        let sig = loaded.sign_raw(&hashed).unwrap();
        assert_eq!(sig.0.to_hex(), OLD_SIGNATURE);
        assert_eq!(sig, key.sign_raw(&hashed).unwrap());
    }
}
