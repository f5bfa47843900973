//! `.bvfuzz.json` reproducer files: serialize a [`FuzzCase`] so a
//! fuzz-found counterexample can be committed to `tests/corpus/` and
//! replayed forever.
//!
//! The format is one JSON object built with the workspace's hand-rolled
//! writer (`bv_telemetry::json`) — no external serializer exists in this
//! build environment. Op streams and weight tables use compact
//! space-separated strings (`"r12 w3 p99"`, `"128x4 256x1"`,
//! `"random:8 zero:1"`) so a thousand-op reproducer stays a few KB and
//! diffs legibly.
//!
//! Replay semantics follow the `--inject` convention: a file carrying
//! `inject_at` replays green when the fault **is** detected, so injected
//! self-test reproducers are committable alongside honest divergences.

use crate::case::{CaseBody, Domain, FuzzCase, KvCase, LlcCase};
use bv_cache::{CacheGeometry, PolicyKind, MAX_WAYS};
use bv_core::audit::AuditOp;
use bv_core::VictimPolicyKind;
use bv_telemetry::json::{parse, ObjWriter, Value};
use bv_trace::request::RequestProfile;
use bv_trace::DataProfile;

/// Schema tag every reproducer carries.
pub const SCHEMA: &str = "bvsim-fuzz-v1";

/// Conventional file extension for reproducers.
pub const EXTENSION: &str = "bvfuzz.json";

/// Stable name for a data profile (corpus palettes and value mixes).
#[must_use]
pub fn profile_name(p: DataProfile) -> &'static str {
    match p {
        DataProfile::Zero => "zero",
        DataProfile::Repeated => "repeated",
        DataProfile::PointerLike => "pointer-like",
        DataProfile::SmallInt => "small-int",
        DataProfile::Clustered => "clustered",
        DataProfile::WideInt => "wide-int",
        DataProfile::FloatLike => "float-like",
        DataProfile::Random => "random",
    }
}

/// Inverse of [`profile_name`].
#[must_use]
pub fn profile_from_name(s: &str) -> Option<DataProfile> {
    DataProfile::ALL.into_iter().find(|&p| profile_name(p) == s)
}

/// Renders a case as its committable JSON form.
#[must_use]
pub fn to_json(case: &FuzzCase) -> String {
    let mut w = ObjWriter::new();
    w.str("schema", SCHEMA)
        .u64("seed", case.seed)
        .str("domain", case.domain().name());
    if let Some(at) = case.inject_at {
        w.u64("inject_at", at);
    }
    match &case.body {
        CaseBody::Llc(c) => {
            let palette: Vec<&str> = c.palette.iter().map(|&p| profile_name(p)).collect();
            let ops: Vec<String> = c
                .ops
                .iter()
                .map(|op| match op {
                    AuditOp::Read(a) => format!("r{a}"),
                    AuditOp::Writeback(a) => format!("w{a}"),
                    AuditOp::Prefetch(a) => format!("p{a}"),
                })
                .collect();
            let mut inner = ObjWriter::new();
            inner
                .u64("sets", c.sets as u64)
                .u64("ways", c.ways as u64)
                .str("policy", c.policy.name())
                .str("victim", c.victim.name())
                .str("palette", &palette.join(" "))
                .str("ops", &ops.join(" "));
            w.raw("llc", &inner.finish());
        }
        CaseBody::Kv(c) => {
            let buckets: Vec<String> = c
                .profile
                .size_buckets
                .iter()
                .map(|(b, wt)| format!("{b}x{wt}"))
                .collect();
            let mix: Vec<String> = c
                .profile
                .value_mix
                .iter()
                .map(|(p, wt)| format!("{}:{wt}", profile_name(*p)))
                .collect();
            let mut inner = ObjWriter::new();
            inner
                .u64("keys", c.profile.keys)
                .u64("skew_milli", (c.profile.skew * 1000.0).round() as u64)
                .u64(
                    "get_ratio_milli",
                    (c.profile.get_ratio * 1000.0).round() as u64,
                )
                .u64("clients", u64::from(c.profile.clients))
                .u64("phase_requests", c.profile.phase_requests)
                .str("size_buckets", &buckets.join(" "))
                .str("value_mix", &mix.join(" "))
                .u64("budget", c.budget)
                .u64("requests", c.requests)
                .u64("stream_seed", c.stream_seed);
            w.raw("kv", &inner.finish());
        }
    }
    w.finish()
}

fn req_usize(v: &Value, key: &str) -> Result<usize, String> {
    usize::try_from(v.req_u64(key)?).map_err(|_| format!("field '{key}' out of range"))
}

/// Parses a reproducer back into a case.
///
/// # Errors
///
/// Returns a description naming the offending field on any schema
/// mismatch, unknown name, or malformed token.
pub fn from_json(text: &str) -> Result<FuzzCase, String> {
    let v = parse(text)?;
    let schema = v.req_str("schema")?;
    if schema != SCHEMA {
        return Err(format!("unsupported schema `{schema}` (want `{SCHEMA}`)"));
    }
    let seed = v.req_u64("seed")?;
    let domain = Domain::from_name(v.req_str("domain")?)
        .ok_or_else(|| "field `domain` must be `llc` or `kv`".to_string())?;
    let inject_at = match v.get("inject_at") {
        None => None,
        Some(x) => Some(
            x.as_u64()
                .ok_or_else(|| "field `inject_at` must be an integer".to_string())?,
        ),
    };
    let body = match domain {
        Domain::Llc => {
            let c = v
                .get("llc")
                .ok_or_else(|| "missing object `llc`".to_string())?;
            let policy_name = c.req_str("policy")?;
            let policy = PolicyKind::ALL
                .into_iter()
                .find(|p| p.name() == policy_name)
                .ok_or_else(|| format!("unknown policy `{policy_name}`"))?;
            let victim_name = c.req_str("victim")?;
            let victim = VictimPolicyKind::ALL
                .into_iter()
                .find(|p| p.name() == victim_name)
                .ok_or_else(|| format!("unknown victim policy `{victim_name}`"))?;
            let palette = c
                .req_str("palette")?
                .split_whitespace()
                .map(|s| profile_from_name(s).ok_or_else(|| format!("unknown profile `{s}`")))
                .collect::<Result<Vec<_>, _>>()?;
            if palette.is_empty() {
                return Err("field `palette` must name at least one profile".to_string());
            }
            let ops = c
                .req_str("ops")?
                .split_whitespace()
                .map(|tok| {
                    // `get`, not indexing: a multi-byte first char has no
                    // boundary at 1.
                    let addr = tok.get(1..).and_then(|a| a.parse().ok());
                    match (tok.as_bytes()[0], addr) {
                        (b'r', Some(a)) => Ok(AuditOp::Read(a)),
                        (b'w', Some(a)) => Ok(AuditOp::Writeback(a)),
                        (b'p', Some(a)) => Ok(AuditOp::Prefetch(a)),
                        _ => Err(format!("malformed op token `{tok}`")),
                    }
                })
                .collect::<Result<Vec<_>, String>>()?;
            let (sets, ways) = (req_usize(c, "sets")?, req_usize(c, "ways")?);
            let bytes = sets.checked_mul(ways).and_then(|n| n.checked_mul(64));
            bytes
                .ok_or_else(|| format!("{sets} sets x {ways} ways x 64 B overflows"))
                .and_then(|bytes| CacheGeometry::check(bytes, ways, 64))
                .map_err(|e| {
                    let field = if (1..=MAX_WAYS).contains(&ways) {
                        "sets"
                    } else {
                        "ways"
                    };
                    format!("field `{field}`: {e}")
                })?;
            CaseBody::Llc(LlcCase {
                sets,
                ways,
                policy,
                victim,
                palette,
                ops,
            })
        }
        Domain::Kv => {
            let c = v
                .get("kv")
                .ok_or_else(|| "missing object `kv`".to_string())?;
            let size_buckets = c
                .req_str("size_buckets")?
                .split_whitespace()
                .map(|tok| {
                    tok.split_once('x')
                        .and_then(|(b, w)| Some((b.parse().ok()?, w.parse().ok()?)))
                        .ok_or_else(|| format!("malformed size bucket `{tok}`"))
                })
                .collect::<Result<Vec<(u32, u32)>, String>>()?;
            let value_mix = c
                .req_str("value_mix")?
                .split_whitespace()
                .map(|tok| {
                    tok.split_once(':')
                        .and_then(|(p, w)| Some((profile_from_name(p)?, w.parse().ok()?)))
                        .ok_or_else(|| format!("malformed value-mix entry `{tok}`"))
                })
                .collect::<Result<Vec<(DataProfile, u32)>, String>>()?;
            if size_buckets.is_empty() || value_mix.is_empty() {
                return Err("kv case needs non-empty size_buckets and value_mix".to_string());
            }
            CaseBody::Kv(KvCase {
                profile: RequestProfile {
                    name: "fuzz",
                    keys: c.req_u64("keys")?.max(1),
                    skew: c.req_u64("skew_milli")? as f64 / 1000.0,
                    get_ratio: c.req_u64("get_ratio_milli")? as f64 / 1000.0,
                    clients: c.req_u64("clients")? as u32,
                    phase_requests: c.req_u64("phase_requests")?,
                    size_buckets,
                    value_mix,
                },
                budget: c.req_u64("budget")?,
                requests: c.req_u64("requests")?,
                stream_seed: c.req_u64("stream_seed")?,
            })
        }
    };
    Ok(FuzzCase {
        seed,
        body,
        inject_at,
    })
}

/// Reads and parses a reproducer file.
///
/// # Errors
///
/// Prefixes every failure (I/O or parse) with the path.
pub fn load(path: &std::path::Path) -> Result<FuzzCase, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    from_json(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Writes a reproducer file (with a trailing newline, like the goldens).
///
/// # Errors
///
/// Prefixes the I/O failure with the path.
pub fn save(path: &std::path::Path, case: &FuzzCase) -> Result<(), String> {
    std::fs::write(path, format!("{}\n", to_json(case)))
        .map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_is_identity_for_both_domains() {
        for seed in 0..20u64 {
            for domain in [Domain::Llc, Domain::Kv] {
                let case = FuzzCase::generate(seed, Some(domain));
                let back = from_json(&to_json(&case)).expect("round trip");
                assert_eq!(back, case, "seed {seed} {}", domain.name());
            }
        }
    }

    #[test]
    fn injection_survives_the_round_trip() {
        let case = FuzzCase::generate(5, Some(Domain::Kv)).with_injection();
        let back = from_json(&to_json(&case)).expect("round trip");
        assert_eq!(back.inject_at, case.inject_at);
    }

    #[test]
    fn parse_errors_name_the_problem() {
        assert!(from_json("{").is_err());
        let wrong_schema = r#"{"schema":"nope","seed":1,"domain":"kv"}"#;
        assert!(from_json(wrong_schema)
            .expect_err("schema")
            .contains("unsupported schema"));
        let bad_domain = format!(r#"{{"schema":"{SCHEMA}","seed":1,"domain":"x"}}"#);
        assert!(from_json(&bad_domain)
            .expect_err("domain")
            .contains("domain"));
        let bad_op = format!(
            r#"{{"schema":"{SCHEMA}","seed":1,"domain":"llc","llc":{{"sets":4,"ways":2,"policy":"lru","victim":"ecm-largest-base","palette":"zero","ops":"q9"}}}}"#
        );
        assert!(from_json(&bad_op)
            .expect_err("op token")
            .contains("malformed op token"));
    }

    fn llc_json(sets: &str, ways: &str, ops: &str) -> String {
        format!(
            r#"{{"schema":"{SCHEMA}","seed":1,"domain":"llc","llc":{{"sets":{sets},"ways":{ways},"policy":"lru","victim":"ecm-largest-base","palette":"zero","ops":"{ops}"}}}}"#
        )
    }

    #[test]
    fn non_ascii_op_tokens_are_malformed_not_a_panic() {
        assert!(from_json(&llc_json("4", "2", "r0 w1 p2")).is_ok());
        for tok in ["é0", "r", "ré", "x5"] {
            let err = from_json(&llc_json("4", "2", &format!("r0 {tok}"))).expect_err(tok);
            assert!(err.contains("malformed op token"), "{tok}: {err}");
        }
    }

    #[test]
    fn unbuildable_geometry_names_the_field() {
        for (sets, ways, field) in [
            ("4", "0", "ways"),
            ("4", "65", "ways"),
            ("3", "2", "sets"),
            ("0", "2", "sets"),
            ("18446744073709551615", "2", "sets"),
        ] {
            let err = from_json(&llc_json(sets, ways, "r0")).expect_err(sets);
            assert!(
                err.starts_with(&format!("field `{field}`")),
                "{sets}x{ways}: {err}"
            );
        }
    }

    #[test]
    fn every_profile_name_round_trips() {
        for p in DataProfile::ALL {
            assert_eq!(profile_from_name(profile_name(p)), Some(p));
        }
    }
}
