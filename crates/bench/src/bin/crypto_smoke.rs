//! Before/after microbenchmarks for the crypto hot path, one row per
//! builtin group (`BENCH_crypto.json`, schema `crypto/v1`).
//!
//! * **Schnorr verify** — the "before" column runs the verify equation
//!   `g^s · y^e` plainly: two `Group::pow` calls (a full-width `s`, the
//!   256-bit challenge `e`), a `Group::mul` join and the challenge re-hash,
//!   with no tables and no batch. The "after" column runs
//!   `schnorr::batch_verify` over the same signatures with cached per-key
//!   fixed-base tables — the steady state the cert cache maintains
//!   (`CertChainCache::key_table`). A third column verifies the first two
//!   of them as a batch of their own, the size a 2-org proof or a 1-tx
//!   block hands the CMDAC and the committing peer: no floor, it records
//!   the small-batch regime, which runs on the calling thread alone.
//! * **Schnorr sign** — `SigningKey::sign` per call, recorded next to the
//!   verify columns: no floor, it is the per-group figure a modp2048
//!   estimate needs.
//! * **Subgroup membership** — the definition, `x^q == 1 (mod p)` through
//!   `Group::pow` (what `Group::is_element` ran before it computed the
//!   Legendre symbol instead), against the shipped `Group::is_element`.
//! * **Exponent length** — the exponentiations of an ElGamal encrypt
//!   (`g^k`, `y^k`) and decrypt (`c1^x`) with an exponent drawn from all of
//!   `[1, q)` through `Group::pow_g`/`Group::pow` (what they cost before
//!   `k` and `x` became 256-bit), against the shipped `encrypt_deterministic`
//!   and `decrypt`, which also pay the KDF, the stream cipher and the MAC.
//! * What else membership and the short challenge sit inside:
//!   `VerifyingKey::from_bytes`, `Certificate::verify`.
//! * **Hash kernels** — SHA-256 and CRC32 throughput over 1 MiB, as shipped
//!   (on SHA-NI / `pclmulqdq` where the CPU has them) and through the
//!   scalar paths called by name. Group-independent: one measurement,
//!   repeated in each of a run's rows next to what the CPU was detected to
//!   have (`sha_ni`, `pclmulqdq`).
//!
//! Usage: `cargo run -p tdt-bench --release --bin crypto_smoke --
//!            [--check] [--out PATH] [--label NAME]`
//!
//! `--check` exits non-zero unless the amortized verify speedup at modp2048
//! is at least [`REQUIRED_SPEEDUP_2048`]×, the shipped membership test beats
//! its definition by [`REQUIRED_MEMBERSHIP_SPEEDUP`] and shipped ElGamal
//! beats its full-width exponentiations by [`REQUIRED_SHORT_EXPONENT_SPEEDUP`]
//! — and, where the CPU has the instructions, that the hash kernels beat
//! their scalar paths by [`REQUIRED_HASH_SPEEDUP`] (a CPU without them
//! skips those floors and says why): the CI regression guards. `--out`
//! writes the rows as JSON, one per line; the file is a trajectory: rows already in it under another `--label`
//! (default `this`) are kept, so a parent commit's rows and a change's rows
//! sit side by side (`--out BENCH_crypto.json --label prN`).

use std::sync::Arc;
use std::time::Instant;
use tdt_bench::{arg_after, trajectory_rows};
use tdt_crypto::bigint::{random_below, BigUint};
use tdt_crypto::cert::{CertRole, CertificateAuthority};
use tdt_crypto::elgamal::DecryptionKey;
use tdt_crypto::group::Group;
use tdt_crypto::schnorr::{batch_verify, BatchItem, Signature, SigningKey, VerifyingKey};
use tdt_crypto::sha256::{compress_blocks_scalar, sha256, sha256_concat};
use tdt_obs::crc32::{crc32, crc32_scalar};

/// Hard floor enforced by `--check` at modp2048. Both sides compute
/// `g^s · y^e` with a 256-bit `e`: 2047 + 256 exponent bits of windowed
/// Montgomery exponentiation against 512 + 64 table multiplications striped
/// over the cores. The plain side's arithmetic predicts about 8×; see
/// `BENCH_crypto.json` for what was measured.
const REQUIRED_SPEEDUP_2048: f64 = 4.0;

/// Floors `--check` enforces on shipped `is_element` vs `x^q == 1`, per
/// group. Measured 25× and 98× when the Legendre symbol went in; the floors
/// leave room for a noisy runner, not for an exponentiation coming back.
const REQUIRED_MEMBERSHIP_SPEEDUP: [(&str, f64); 2] = [("modp768", 8.0), ("modp2048", 25.0)];

/// Floors `--check` enforces on shipped ElGamal encrypt *and* decrypt vs the
/// same exponentiations with a `[1, q)` exponent, per group. 256 bits against
/// 767 and 2047: the arithmetic says 3× and 8×, measured 2.5× and 6.7–7.4×
/// when the exponents were shortened (the shipped side also pays the KDF,
/// stream cipher, MAC and membership check); the floors catch a full-width
/// exponent coming back, not a noisy runner.
const REQUIRED_SHORT_EXPONENT_SPEEDUP: [(&str, f64); 2] = [("modp768", 2.0), ("modp2048", 4.0)];

/// Floors `--check` enforces on the hash kernels against their scalar
/// paths, where the CPU has the kernel. Measured 5–6× (SHA-NI) and 12×
/// (`pclmulqdq`) on the 2-vCPU reference box when the kernels went in.
const REQUIRED_HASH_SPEEDUP: [(&str, f64); 2] = [
    ("sha256 SHA-NI vs scalar", 3.0),
    ("crc32 pclmulqdq vs scalar", 4.0),
];

/// Bytes per hash-throughput measurement.
const HASH_BYTES: usize = 1 << 20;

/// Signatures per batch. Small enough for a CI smoke run, large enough
/// that the batch aggregate and challenge striping amortize.
const BATCH: usize = 16;

/// Distinct signing keys the batch round-robins over, mirroring a proof
/// whose attestations come from a handful of orgs.
const KEYS: usize = 4;

/// Timed repetitions per measurement; the minimum is reported so a
/// scheduler hiccup in one round cannot fake a regression.
const ROUNDS: usize = 5;

struct Fixture {
    signers: Vec<SigningKey>,
    keys: Vec<VerifyingKey>,
    tables: Vec<Arc<tdt_crypto::group::FixedBaseTable>>,
    messages: Vec<Vec<u8>>,
    sigs: Vec<Signature>,
    /// keys/tables index for each batch slot.
    owner: Vec<usize>,
}

fn fixture(group: &Group) -> Fixture {
    let signers: Vec<SigningKey> = (0..KEYS)
        .map(|i| SigningKey::from_seed(group.clone(), format!("smoke-key-{i}").as_bytes()))
        .collect();
    let keys: Vec<VerifyingKey> = signers.iter().map(SigningKey::verifying_key).collect();
    let tables: Vec<_> = keys
        .iter()
        .map(|vk| Arc::new(vk.precompute_table()))
        .collect();
    let mut messages = Vec::with_capacity(BATCH);
    let mut sigs = Vec::with_capacity(BATCH);
    let mut owner = Vec::with_capacity(BATCH);
    for i in 0..BATCH {
        let msg = format!("attestation metadata {i}").into_bytes();
        let k = i % KEYS;
        sigs.push(signers[k].sign(&msg)); // lint:allow(panic: "smoke fixture: indices are i % KEYS / i < BATCH by construction")
        messages.push(msg);
        owner.push(k);
    }
    Fixture {
        signers,
        keys,
        tables,
        messages,
        sigs,
        owner,
    }
}

/// The verify equation `g^s · y^e` without tables or batching: `Group::pow`
/// twice, `Group::mul`, re-hash.
fn verify_plain(group: &Group, vk: &VerifyingKey, message: &[u8], sig: &Signature) {
    let (e, s) = sig.scalars(group).expect("smoke signature decodes"); // lint:allow(panic: "smoke fixture: signatures were just produced by sign")
    let gs = group.pow(group.generator(), &s);
    let ye = group.pow(vk.element(), &e);
    let r_prime = group.mul(&gs, &ye);
    let e_prime = sha256_concat(&[
        b"tdt-schnorr-e256",
        &group.element_to_bytes(&r_prime),
        &group.element_to_bytes(vk.element()),
        message,
    ]);
    assert!(
        BigUint::from_bytes_be(&e_prime) == e,
        "baseline verify must accept the fixture"
    );
}

/// Minimum wall time over [`ROUNDS`] runs of `f`, in seconds.
fn time_min<F: FnMut()>(mut f: F) -> f64 {
    // Warm-up run outside the measurement.
    f();
    let mut best = f64::INFINITY;
    for _ in 0..ROUNDS {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

struct Row {
    name: &'static str,
    before_us: f64,
    after_us: f64,
    pair_us: f64,
    speedup: f64,
    schnorr_sign_us: f64,
    is_element_oracle_us: f64,
    is_element_us: f64,
    vk_from_bytes_us: f64,
    elgamal_encrypt_full_exp_us: f64,
    elgamal_encrypt_us: f64,
    elgamal_decrypt_full_exp_us: f64,
    elgamal_decrypt_us: f64,
    cert_verify_us: f64,
}

/// Hash throughput, the same for every group.
struct Hashes {
    sha_ni: bool,
    pclmulqdq: bool,
    sha256_mb_s: f64,
    sha256_scalar_mb_s: f64,
    crc32_mb_s: f64,
    crc32_scalar_mb_s: f64,
}

impl Hashes {
    fn measure() -> Hashes {
        let data: Vec<u8> = (0..HASH_BYTES).map(|i| (i * 131 + 7) as u8).collect();
        let mb_s = |f: &dyn Fn(&[u8])| {
            HASH_BYTES as f64 / time_min(|| f(std::hint::black_box(&data))) / 1e6
        };
        Hashes {
            sha_ni: tdt_crypto::sha256::accelerated(),
            pclmulqdq: tdt_obs::crc32::accelerated(),
            sha256_mb_s: mb_s(&|bytes| {
                std::hint::black_box(sha256(bytes));
            }),
            sha256_scalar_mb_s: mb_s(&|bytes| {
                let mut state = [0u32; 8];
                compress_blocks_scalar(&mut state, bytes.as_chunks::<64>().0);
                std::hint::black_box(state);
            }),
            crc32_mb_s: mb_s(&|bytes| {
                std::hint::black_box(crc32(bytes));
            }),
            crc32_scalar_mb_s: mb_s(&|bytes| {
                std::hint::black_box(crc32_scalar(bytes));
            }),
        }
    }

    /// `(hash, kernel detected, shipped MB/s, scalar MB/s)`.
    fn per_hash(&self) -> [(&'static str, bool, f64, f64); 2] {
        [
            (
                "sha256",
                self.sha_ni,
                self.sha256_mb_s,
                self.sha256_scalar_mb_s,
            ),
            (
                "crc32",
                self.pclmulqdq,
                self.crc32_mb_s,
                self.crc32_scalar_mb_s,
            ),
        ]
    }

    fn json(&self) -> String {
        format!(
            "\"sha_ni\": {}, \"pclmulqdq\": {}, \"sha256_mb_s\": {:.1}, \"sha256_scalar_mb_s\": {:.1}, \"crc32_mb_s\": {:.1}, \"crc32_scalar_mb_s\": {:.1}",
            self.sha_ni,
            self.pclmulqdq,
            self.sha256_mb_s,
            self.sha256_scalar_mb_s,
            self.crc32_mb_s,
            self.crc32_scalar_mb_s,
        )
    }
}

impl Row {
    fn membership_speedup(&self) -> f64 {
        self.is_element_oracle_us / self.is_element_us
    }

    /// The smaller of the encrypt and decrypt gains: both must clear the floor.
    fn short_exponent_speedup(&self) -> f64 {
        let encrypt = self.elgamal_encrypt_full_exp_us / self.elgamal_encrypt_us;
        let decrypt = self.elgamal_decrypt_full_exp_us / self.elgamal_decrypt_us;
        encrypt.min(decrypt)
    }

    fn json(&self, label: &str, hashes: &Hashes) -> String {
        format!(
            "    {{\"label\": \"{label}\", \"group\": \"{}\", \"verify_plain_us\": {:.1}, \"verify_batch_us\": {:.1}, \"verify_batch2_us\": {:.1}, \"schnorr_sign_us\": {:.1}, \"is_element_oracle_us\": {:.1}, \"is_element_us\": {:.1}, \"vk_from_bytes_us\": {:.1}, \"elgamal_encrypt_full_exp_us\": {:.1}, \"elgamal_encrypt_us\": {:.1}, \"elgamal_decrypt_full_exp_us\": {:.1}, \"elgamal_decrypt_us\": {:.1}, \"cert_verify_us\": {:.1}, {}}}",
            self.name,
            self.before_us,
            self.after_us,
            self.pair_us,
            self.schnorr_sign_us,
            self.is_element_oracle_us,
            self.is_element_us,
            self.vk_from_bytes_us,
            self.elgamal_encrypt_full_exp_us,
            self.elgamal_encrypt_us,
            self.elgamal_decrypt_full_exp_us,
            self.elgamal_decrypt_us,
            self.cert_verify_us,
            hashes.json(),
        )
    }
}

/// Microseconds per call of `f`, each timed round making [`BATCH`] calls.
fn us_per_call<T>(mut f: impl FnMut() -> T) -> f64 {
    let round = time_min(|| {
        for _ in 0..BATCH {
            std::hint::black_box(f());
        }
    });
    round / BATCH as f64 * 1e6
}

fn measure(group: &Group) -> Row {
    let fx = fixture(group);

    let before = time_min(|| {
        for i in 0..BATCH {
            verify_plain(
                group,
                &fx.keys[fx.owner[i]], // lint:allow(panic: "smoke fixture: indices are i % KEYS / i < BATCH by construction")
                &fx.messages[i],
                &fx.sigs[i], // lint:allow(panic: "smoke fixture: indices are i % KEYS / i < BATCH by construction")
            );
        }
    });

    let items: Vec<BatchItem<'_>> = (0..BATCH)
        .map(|i| BatchItem {
            key: &fx.keys[fx.owner[i]], // lint:allow(panic: "smoke fixture: indices are i % KEYS / i < BATCH by construction")
            message: &fx.messages[i],
            signature: &fx.sigs[i], // lint:allow(panic: "smoke fixture: indices are i % KEYS / i < BATCH by construction")
            table: Some(Arc::clone(&fx.tables[fx.owner[i]])),
        })
        .collect();
    let after = time_min(|| {
        batch_verify(&items).expect("smoke batch must verify"); // lint:allow(panic: "smoke guard: a failed batch verify must fail the CI job")
    });
    let pair_us = us_per_call(|| batch_verify(&items[..2]).is_ok()) / 2.0; // lint:allow(panic: "smoke fixture: BATCH >= 2 by construction")

    let mut signers = fx.signers.iter().cycle();
    let schnorr_sign_us = us_per_call(|| signers.next().map(|sk| sk.sign(b"attestation metadata")));

    // Membership and what it sits inside, over the fixture's public keys.
    let one = BigUint::one();
    let mut keys = fx.keys.iter().cycle();
    let mut next_key = || std::hint::black_box(keys.next());
    let is_element_oracle_us =
        us_per_call(|| next_key().map(|vk| group.pow(vk.element(), group.q()) == one));
    let is_element_us = us_per_call(|| next_key().map(|vk| group.is_element(vk.element())));
    let vk_from_bytes_us = us_per_call(|| {
        next_key().map(|vk| VerifyingKey::from_bytes(group.clone(), &vk.to_bytes()).is_ok())
    });
    let dk = DecryptionKey::from_seed(group.clone(), b"smoke-recipient");
    let ek = dk.encryption_key();
    let plaintext = [0x5au8; 256];
    let ciphertext = ek.encrypt_deterministic(&plaintext, b"smoke");
    let elgamal_encrypt_us = us_per_call(|| ek.encrypt_deterministic(&plaintext, b"smoke"));
    let elgamal_decrypt_us = us_per_call(|| dk.decrypt(&ciphertext).is_ok());
    // The same exponentiations with an exponent from all of [1, q); any
    // subgroup element stands in for the recipient key and for `c1`.
    let full = random_below(group.q(), &mut rand::thread_rng());
    let element = group.pow_g(&full);
    let elgamal_encrypt_full_exp_us =
        us_per_call(|| (group.pow_g(&full), group.pow(&element, &full)));
    let elgamal_decrypt_full_exp_us = us_per_call(|| group.pow(&element, &full));
    let mut ca = CertificateAuthority::new("smoke-net", "smoke-org", group.clone(), b"smoke-ca");
    let root = ca.root_certificate().clone();
    let certs: Vec<_> = fx
        .keys
        .iter()
        .map(|vk| ca.issue("peer", CertRole::Peer, vk, None))
        .collect();
    let mut certs = certs.iter().cycle();
    let cert_verify_us = us_per_call(|| certs.next().map(|cert| cert.verify(&root).is_ok()));

    Row {
        name: group.name(),
        before_us: before / BATCH as f64 * 1e6,
        after_us: after / BATCH as f64 * 1e6,
        pair_us,
        speedup: before / after,
        schnorr_sign_us,
        is_element_oracle_us,
        is_element_us,
        vk_from_bytes_us,
        elgamal_encrypt_full_exp_us,
        elgamal_encrypt_us,
        elgamal_decrypt_full_exp_us,
        elgamal_decrypt_us,
        cert_verify_us,
    }
}

/// Writes `rows` (this run's, under `label`) to `path`, carrying over the
/// rows an existing file holds under other labels.
fn write_json(path: &str, label: &str, rows: &[Row], hashes: &Hashes) -> std::io::Result<()> {
    let rows: Vec<String> = rows.iter().map(|row| row.json(label, hashes)).collect();
    let cores = tdt_obs::par::cores();
    let doc = format!(
        "{{\n  \"schema\": \"crypto/v1\",\n  \"generated_by\": \"cargo run -p tdt-bench --release --bin crypto_smoke -- --out PATH --label NAME\",\n  \
         \"config\": {{\"batch\": {BATCH}, \"keys\": {KEYS}, \"rounds\": {ROUNDS}, \"cores\": {cores}}},\n  \
         \"runs\": [\n{}\n  ]\n}}\n",
        trajectory_rows(path, label, &rows),
    );
    std::fs::write(path, doc)
}

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    let out = arg_after("--out");
    let label = arg_after("--label").unwrap_or_else(|| "this".to_string());

    println!("crypto_smoke: {BATCH} signatures, {KEYS} keys, best of {ROUNDS} rounds");
    let rows: Vec<Row> = [Group::modp_768(), Group::modp_1024(), Group::modp_2048()]
        .iter()
        .map(measure)
        .collect();
    let hashes = Hashes::measure();
    println!(
        "| group | schnorr sign (us) | plain verify (us/sig) | batch+tables (us/sig) | speedup | batch of 2 (us/sig) |"
    );
    println!("|---|---|---|---|---|---|");
    for row in &rows {
        println!(
            "| {} | {:.1} | {:.1} | {:.1} | {:.2}x | {:.1} |",
            row.name, row.schnorr_sign_us, row.before_us, row.after_us, row.speedup, row.pair_us
        );
    }
    println!("| group | x^q == 1 (us) | is_element (us) | speedup | VerifyingKey::from_bytes (us) | Certificate::verify (us) |");
    println!("|---|---|---|---|---|---|");
    for row in &rows {
        println!(
            "| {} | {:.1} | {:.1} | {:.1}x | {:.1} | {:.1} |",
            row.name,
            row.is_element_oracle_us,
            row.is_element_us,
            row.membership_speedup(),
            row.vk_from_bytes_us,
            row.cert_verify_us,
        );
    }
    println!("| group | g^k, y^k full-width (us) | elgamal encrypt (us) | c1^x full-width (us) | elgamal decrypt (us) | smaller speedup |");
    println!("|---|---|---|---|---|---|");
    for row in &rows {
        println!(
            "| {} | {:.1} | {:.1} | {:.1} | {:.1} | {:.1}x |",
            row.name,
            row.elgamal_encrypt_full_exp_us,
            row.elgamal_encrypt_us,
            row.elgamal_decrypt_full_exp_us,
            row.elgamal_decrypt_us,
            row.short_exponent_speedup(),
        );
    }

    println!("| hash, 1 MiB | shipped (MB/s) | scalar (MB/s) | speedup | kernel |");
    println!("|---|---|---|---|---|");
    for (name, detected, shipped, scalar) in hashes.per_hash() {
        let kernel = if detected {
            "detected"
        } else {
            "not on this CPU"
        };
        let speedup = shipped / scalar;
        println!("| {name} | {shipped:.0} | {scalar:.0} | {speedup:.1}x | {kernel} |");
    }

    if let Some(path) = out {
        match write_json(&path, &label, &rows, &hashes) {
            Ok(()) => println!("crypto_smoke: wrote {path}"),
            Err(e) => {
                eprintln!("crypto_smoke: cannot write {path}: {e}");
                std::process::exit(1);
            }
        }
    }

    if check {
        let speedup_of = |group: &str, pick: fn(&Row) -> f64| {
            rows.iter().find(|row| row.name == group).map(pick)
        };
        let mut checks = vec![(
            "modp2048",
            "batch verify vs plain verify",
            REQUIRED_SPEEDUP_2048,
            speedup_of("modp2048", |row| row.speedup),
        )];
        for (group, floor) in REQUIRED_MEMBERSHIP_SPEEDUP {
            let got = speedup_of(group, Row::membership_speedup);
            checks.push((group, "is_element vs x^q == 1", floor, got));
        }
        for (group, floor) in REQUIRED_SHORT_EXPONENT_SPEEDUP {
            let got = speedup_of(group, Row::short_exponent_speedup);
            checks.push((group, "elgamal vs full-width exponents", floor, got));
        }
        for ((_, detected, shipped, scalar), (what, floor)) in
            hashes.per_hash().into_iter().zip(REQUIRED_HASH_SPEEDUP)
        {
            if detected {
                checks.push(("1 MiB", what, floor, Some(shipped / scalar)));
            } else {
                println!("check skipped: {what}: this CPU lacks the instructions, so the scalar path is the shipped one");
            }
        }
        let mut failed = false;
        for (group, what, floor, got) in checks {
            match got {
                Some(got) if got >= floor => {
                    println!("check passed: {group} {what} {got:.2}x >= {floor}x");
                }
                _ => {
                    eprintln!(
                        "FAIL: {group} {what} {got:.2?}x is below the required {floor}x floor"
                    );
                    failed = true;
                }
            }
        }
        if failed {
            std::process::exit(1);
        }
    }
}
