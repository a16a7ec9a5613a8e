//! The JSON wire protocol of the job server.
//!
//! A submission body is an externally tagged [`JobSpec`]:
//!
//! ```json
//! {"Experiment": {"config": { ...ExperimentConfig... },
//!                 "cases":  [ ...CaseSpec... ]}}
//! {"Ipdrp":      {"config": { ...IpdrpConfig... }, "seed": 1}}
//! {"Preset":     {"name": "fig4"}}
//! ```
//!
//! `GET /v1/presets` returns ready-to-POST bodies for every preset, so a
//! client never has to author a config by hand to get started.

use ahn_core::{
    canonical_hash, cases::CaseSpec, check_cell, config::ExperimentConfig, ExperimentResult,
};
use ahn_ipdrp::IpdrpConfig;
use serde::{Deserialize, Serialize};

/// One unit of server work, as submitted by a client.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum JobSpec {
    /// Run every case as one batch of the cell engine
    /// ([`ahn_core::run_cells`]) and return the `Vec<ExperimentResult>`
    /// in case order.
    Experiment {
        /// Experiment parameters (presets: `configs/example.json`).
        config: ExperimentConfig,
        /// Evaluation cases, each a full experiment.
        cases: Vec<CaseSpec>,
    },
    /// Run the IPDRP baseline and return its `Vec<IpdrpGeneration>`.
    Ipdrp {
        /// IPDRP parameters.
        config: IpdrpConfig,
        /// RNG seed.
        seed: u64,
    },
    /// A named server-side pipeline, expanded before queueing (see
    /// [`presets`]).
    Preset {
        /// Preset name: `fig4`, `table5` or `ipdrp`.
        name: String,
    },
}

impl JobSpec {
    /// Expands a `Preset` submission into the concrete job it names;
    /// concrete specs pass through unchanged.
    pub fn resolve(self) -> Result<JobSpec, String> {
        match self {
            JobSpec::Preset { name } => presets()
                .into_iter()
                .find(|p| p.name == name)
                .map(|p| p.body)
                .ok_or_else(|| format!("unknown preset {name:?} (try GET /v1/presets)")),
            concrete => Ok(concrete),
        }
    }

    /// Validates a resolved spec before it is hashed or queued.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            JobSpec::Experiment { config, cases } => {
                if cases.is_empty() {
                    return Err("cases must not be empty".into());
                }
                // A bad cell must become a 400, never a worker panic.
                cases.iter().try_for_each(|case| check_cell(config, case))
            }
            JobSpec::Ipdrp { config, .. } => {
                if config.population < 2 || config.population % 2 != 0 {
                    return Err("ipdrp population must be even and >= 2".into());
                }
                if config.rounds == 0 || config.generations == 0 {
                    return Err("ipdrp rounds and generations must be positive".into());
                }
                Ok(())
            }
            JobSpec::Preset { .. } => Err("presets must be resolved before validation".into()),
        }
    }

    /// The result-cache key: the canonical structural hash of the
    /// resolved spec (`ahn_core::config::canonical_hash`). Structurally
    /// identical submissions — whether spelled out or named via a preset
    /// — share one cache entry.
    pub fn cache_key(&self) -> Result<u64, String> {
        canonical_hash(self)
    }

    /// Ad Hoc Network Games (or IPD games) this job will simulate, for
    /// the `/metrics` throughput gauge.
    pub fn games(&self) -> u64 {
        match self {
            JobSpec::Experiment { config, cases } => {
                let per_generation: usize = cases
                    .iter()
                    .flat_map(|c| c.envs.iter())
                    .map(|e| e.size * config.rounds * config.plays_per_env)
                    .sum();
                (config.replications * config.generations * per_generation) as u64
            }
            JobSpec::Ipdrp { config, .. } => {
                (config.generations * config.rounds * (config.population / 2)) as u64
            }
            JobSpec::Preset { .. } => 0,
        }
    }
}

/// A submission acknowledgement without an inline result (202 path).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SubmitAck {
    /// Job to poll at `GET /v1/jobs/{id}`.
    pub job_id: u64,
    /// `queued` — or `running`/`done`/`failed` when the submission was
    /// coalesced onto an identical in-flight job.
    pub status: String,
    /// Always false on this shape; cache hits return the result inline.
    pub cached: bool,
}

/// Every reply the server writes about one experiment job, decoded in
/// one pass: the `200` cache hit of `POST /v1/experiments` (`job_id`
/// null, `result` inline), its `202` [`SubmitAck`], and each
/// `GET /v1/jobs/{id}` answer (`queued` or `running`; `done` with
/// `result`; `failed` with `error`). Fields a shape lacks decode as
/// `None`, and fields the type does not name (`cached`) are skipped.
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub struct JobReply {
    /// The job to poll; `None` on a cache hit.
    pub job_id: Option<u64>,
    /// `queued`, `running`, `done` or `failed`.
    pub status: String,
    /// The job's results in case order, on a `done` reply.
    pub result: Option<Vec<ExperimentResult>>,
    /// Why the job failed, on a `failed` reply.
    pub error: Option<String>,
}

/// Default lease on a `POST /v1/work/claim` that does not name one.
pub const DEFAULT_LEASE_MS: u64 = 60_000;

/// Upper bound on any requested lease: a worker that claims a cell and
/// dies must not strand it for longer than this.
pub const MAX_LEASE_MS: u64 = 600_000;

/// Body of `POST /v1/work/claim`. An empty body is a valid claim with
/// the default lease.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ClaimRequest {
    /// Requested lease in milliseconds, clamped to
    /// [1, [`MAX_LEASE_MS`]]; [`DEFAULT_LEASE_MS`] when omitted.
    pub lease_ms: Option<u64>,
    /// Circuit-breaker trips this worker observed since its last
    /// acknowledged claim; the server folds them into
    /// `breaker_open_total`. Best-effort telemetry (at-least-once under
    /// faults), omitted by pre-hardening workers.
    pub breaker_trips: Option<u64>,
    /// Milliseconds this worker spent in backoff sleeps since its last
    /// acknowledged claim; the server samples them into the
    /// `backoff_sleep_ms` histogram. Same best-effort contract as
    /// `breaker_trips`; omitted by pre-observability workers.
    pub backoff_ms: Option<u64>,
}

/// A granted work lease, the non-empty answer of `POST /v1/work/claim`
/// (an idle queue answers `{"status":"empty"}` instead).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkGrant {
    /// Lease id to quote in the completion.
    pub lease_id: u64,
    /// The job this lease executes.
    pub job_id: u64,
    /// Result-cache key of the resolved spec — must equal
    /// `spec.cache_key()`; workers verify this before computing
    /// (per-cell idempotency via `canonical_hash`).
    pub key: u64,
    /// Granted lease in milliseconds (after clamping).
    pub lease_ms: u64,
    /// Trace id of the cell's span tree (`trace_id_of_key(key)`), echoed
    /// back by tracing workers so one cell's lifecycle joins across the
    /// server's and the worker's trace logs.
    pub trace_id: u64,
    /// The resolved spec to run.
    pub spec: JobSpec,
}

/// Body of `POST /v1/work/complete`: exactly one of `result` / `error`
/// is set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkCompletion {
    /// The lease this completion settles (expired leases are accepted:
    /// the result is still valid, first completion wins).
    pub lease_id: u64,
    /// The job the lease was granted for.
    pub job_id: u64,
    /// Result-cache key the worker computed from the spec; rejected on
    /// mismatch with the server's record.
    pub key: u64,
    /// Serialized result JSON on success.
    pub result: Option<String>,
    /// Failure message when the job could not be run.
    pub error: Option<String>,
    /// Trace id echoed from the grant, for cross-node span joins.
    pub trace_id: u64,
    /// Self-reported compute time in microseconds; the server samples
    /// it into the `job_compute_us` histogram.
    pub compute_us: u64,
}

/// One entry of `GET /v1/presets`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PresetEntry {
    /// Preset name accepted by `{"Preset": {"name": ...}}`.
    pub name: String,
    /// What the pipeline reproduces.
    pub description: String,
    /// The exact body `POST /v1/experiments` accepts for this preset.
    pub body: JobSpec,
}

/// The built-in pipelines, at the bench scale of
/// `crates/bench` (real dynamics, sub-second jobs): `fig4` (a CSN-free
/// and a CSN-heavy evolution), `table5` (one three-environment case) and
/// `ipdrp` (the X3 baseline). Paper-scale runs submit an explicit
/// `Experiment` body with `ExperimentConfig::paper()` parameters.
pub fn presets() -> Vec<PresetEntry> {
    let mut config = ExperimentConfig::smoke();
    config.replications = 1;
    config.generations = 8;
    let mini =
        |name: &str, csn: &[usize]| CaseSpec::mini(name, csn, 10, ahn_net::PathMode::Shorter);
    vec![
        PresetEntry {
            name: "fig4".into(),
            description: "cooperation evolution, CSN-free and CSN-heavy (Figure 4 shape)".into(),
            body: JobSpec::Experiment {
                config: config.clone(),
                cases: vec![mini("fig4-free", &[0]), mini("fig4-heavy", &[6])],
            },
        },
        PresetEntry {
            name: "table5".into(),
            description: "per-environment cooperation over three environments (Table 5 shape)"
                .into(),
            body: JobSpec::Experiment {
                config,
                cases: vec![mini("table5", &[0, 3, 6])],
            },
        },
        PresetEntry {
            name: "ipdrp".into(),
            description: "IPDRP baseline evolution (X3)".into(),
            body: JobSpec::Ipdrp {
                config: IpdrpConfig {
                    population: 40,
                    rounds: 30,
                    generations: 8,
                    ..IpdrpConfig::default()
                },
                seed: 1,
            },
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_resolve_validate_and_hash() {
        for preset in presets() {
            let named = JobSpec::Preset {
                name: preset.name.clone(),
            };
            let resolved = named.resolve().unwrap();
            assert_eq!(resolved, preset.body, "{}", preset.name);
            resolved.validate().unwrap();
            // Preset and explicit submissions share a cache key.
            assert_eq!(
                resolved.cache_key().unwrap(),
                preset.body.cache_key().unwrap()
            );
            assert!(resolved.games() > 0);
        }
    }

    #[test]
    fn unknown_preset_is_rejected() {
        let err = JobSpec::Preset {
            name: "table99".into(),
        }
        .resolve()
        .unwrap_err();
        assert!(err.contains("unknown preset"), "{err}");
    }

    #[test]
    fn validation_catches_bad_specs() {
        let mut config = ExperimentConfig::smoke();
        config.population = 0;
        let bad = JobSpec::Experiment {
            config,
            cases: vec![CaseSpec::mini("x", &[0], 10, ahn_net::PathMode::Shorter)],
        };
        assert!(bad.validate().is_err());

        let empty = JobSpec::Experiment {
            config: ExperimentConfig::smoke(),
            cases: vec![],
        };
        assert!(empty.validate().is_err());

        // A paper case needs 50 normal players; smoke has 20.
        let starved = JobSpec::Experiment {
            config: ExperimentConfig::smoke(),
            cases: vec![CaseSpec::paper(3)],
        };
        let err = starved.validate().unwrap_err();
        assert!(err.contains("cannot fill"), "{err}");

        let odd = JobSpec::Ipdrp {
            config: IpdrpConfig {
                population: 7,
                ..IpdrpConfig::default()
            },
            seed: 0,
        };
        assert!(odd.validate().is_err());
    }

    #[test]
    fn validation_catches_broken_environments() {
        // Deserialized specs bypass the constructors' assertions; these
        // shapes must be 400s, not worker panics.
        let with_case = |case: CaseSpec| JobSpec::Experiment {
            config: ExperimentConfig::smoke(),
            cases: vec![case],
        };

        let no_envs: CaseSpec =
            serde_json::from_str("{\"name\":\"empty\",\"envs\":[],\"mode\":\"Shorter\"}").unwrap();
        let err = with_case(no_envs).validate().unwrap_err();
        assert!(err.contains("no environments"), "{err}");

        let too_small: CaseSpec = serde_json::from_str(
            "{\"name\":\"tiny\",\"envs\":[{\"size\":2,\"csn\":0}],\"mode\":\"Shorter\"}",
        )
        .unwrap();
        let err = with_case(too_small).validate().unwrap_err();
        assert!(err.contains("cannot route"), "{err}");

        let all_csn: CaseSpec = serde_json::from_str(
            "{\"name\":\"csn\",\"envs\":[{\"size\":10,\"csn\":10}],\"mode\":\"Shorter\"}",
        )
        .unwrap();
        let err = with_case(all_csn).validate().unwrap_err();
        assert!(err.contains("cannot fit"), "{err}");
    }

    #[test]
    fn cache_key_is_structural_and_seed_sensitive() {
        let body = presets()[0].body.clone();
        let json = serde_json::to_string(&body).unwrap();
        let back: JobSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(body.cache_key().unwrap(), back.cache_key().unwrap());

        if let JobSpec::Experiment { mut config, cases } = body.clone() {
            config.base_seed ^= 1;
            let moved = JobSpec::Experiment { config, cases };
            assert_ne!(body.cache_key().unwrap(), moved.cache_key().unwrap());
        } else {
            panic!("fig4 preset is an experiment");
        }
    }

    #[test]
    fn work_wire_types_roundtrip() {
        // An empty claim body means "default lease".
        let claim: ClaimRequest = serde_json::from_str("{}").unwrap();
        assert_eq!(claim.lease_ms, None);
        assert_eq!(claim.breaker_trips, None);
        let claim: ClaimRequest = serde_json::from_str("{\"lease_ms\":250}").unwrap();
        assert_eq!(claim.lease_ms, Some(250));
        // The hardened worker's claim body carries trip telemetry.
        let claim: ClaimRequest =
            serde_json::from_str("{\"lease_ms\":250,\"breaker_trips\":2}").unwrap();
        assert_eq!(claim.breaker_trips, Some(2));
        assert_eq!(claim.backoff_ms, None);
        // The observability-era claim body adds backoff telemetry.
        let claim: ClaimRequest =
            serde_json::from_str("{\"lease_ms\":250,\"breaker_trips\":2,\"backoff_ms\":40}")
                .unwrap();
        assert_eq!(claim.backoff_ms, Some(40));

        let spec = presets()[0].body.clone();
        let grant = WorkGrant {
            lease_id: 3,
            job_id: 9,
            key: spec.cache_key().unwrap(),
            lease_ms: DEFAULT_LEASE_MS,
            trace_id: ahn_obs::trace_id_of_key(spec.cache_key().unwrap()),
            spec,
        };
        let json = serde_json::to_string(&grant).unwrap();
        let back: WorkGrant = serde_json::from_str(&json).unwrap();
        assert_eq!(grant, back);
        assert_eq!(back.spec.cache_key().unwrap(), back.key);

        let done = WorkCompletion {
            lease_id: 3,
            job_id: 9,
            key: grant.key,
            result: Some("[{\"x\":1}]".into()),
            error: None,
            trace_id: grant.trace_id,
            compute_us: 1_200,
        };
        let json = serde_json::to_string(&done).unwrap();
        let back: WorkCompletion = serde_json::from_str(&json).unwrap();
        assert_eq!(done, back);
    }

    #[test]
    fn games_estimate_matches_shape() {
        // 1 rep x 8 gens x (10 nodes x 30 rounds x 1 play) x 2 cases.
        let fig4 = &presets()[0].body;
        assert_eq!(fig4.games(), 8 * 10 * 30 * 2);
        // 8 gens x 30 rounds x 20 pairs.
        let ipdrp = &presets()[2].body;
        assert_eq!(ipdrp.games(), 8 * 30 * 20);
    }
}
