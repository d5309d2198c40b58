//! The serving façades of `latest-core` behind one closed-loop surface:
//! every call returns when its effect is visible to the next call, which
//! is what a caller waiting for its reply sees. The workloads use
//! `Plain` and `Sharded`; the traced run's façade ladder uses all five
//! rungs on identical inputs.

use crate::spec::EngineKind;
use geostream::{GeoTextObject, RcDvq};
use latest_core::{
    Latest, LatestConfig, LatestError, MetricsSnapshot, PhaseTag, QueryOptions, QueryOutcome,
    ServingEngine, ShardedLatest, SharedLatest,
};
use std::sync::Arc;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FacadeKind {
    Latest,
    SharedLatest,
    Sharded(usize),
    /// One `ServingEngine` worker in front of `ShardedLatest` with one
    /// shard.
    Serving,
}

impl FacadeKind {
    pub const LADDER: [FacadeKind; 5] = [
        FacadeKind::Latest,
        FacadeKind::SharedLatest,
        FacadeKind::Sharded(1),
        FacadeKind::Sharded(2),
        FacadeKind::Serving,
    ];

    pub fn name(self) -> String {
        match self {
            FacadeKind::Latest => "latest".into(),
            FacadeKind::SharedLatest => "shared".into(),
            FacadeKind::Sharded(n) => format!("sharded-{n}"),
            FacadeKind::Serving => "serving".into(),
        }
    }

    pub fn parse(name: &str) -> Option<FacadeKind> {
        Self::LADDER.into_iter().find(|k| k.name() == name)
    }

    /// The engine layout the configuration must be built for.
    pub fn engine(self) -> EngineKind {
        match self {
            FacadeKind::Latest | FacadeKind::SharedLatest => EngineKind::Plain,
            FacadeKind::Sharded(n) => EngineKind::Sharded(n),
            FacadeKind::Serving => EngineKind::Sharded(1),
        }
    }
}

impl From<EngineKind> for FacadeKind {
    fn from(engine: EngineKind) -> Self {
        match engine {
            EngineKind::Plain => FacadeKind::Latest,
            EngineKind::Sharded(n) => FacadeKind::Sharded(n),
        }
    }
}

pub enum Facade {
    Latest(Box<Latest>),
    Shared(SharedLatest),
    Sharded(Arc<ShardedLatest>),
    Serving {
        front: ServingEngine,
        engine: Arc<ShardedLatest>,
    },
}

impl Facade {
    pub fn new(kind: FacadeKind, config: LatestConfig) -> Result<Facade, LatestError> {
        Ok(match kind {
            FacadeKind::Latest => Facade::Latest(Box::new(Latest::new(config))),
            FacadeKind::SharedLatest => Facade::Shared(SharedLatest::new(config)),
            FacadeKind::Sharded(_) => Facade::Sharded(Arc::new(ShardedLatest::new(config)?)),
            FacadeKind::Serving => {
                let engine = Arc::new(ShardedLatest::new(config)?);
                Facade::Serving {
                    front: ServingEngine::new(Arc::clone(&engine), 1, 64)?,
                    engine,
                }
            }
        })
    }

    /// Applies one batch. On the sharded engines this is `ingest_batch`
    /// plus `flush`: "applied in every shard", not "enqueued".
    pub fn ingest(&mut self, batch: &[GeoTextObject]) -> Result<(), LatestError> {
        match self {
            Facade::Latest(latest) => {
                latest.ingest_batch(batch);
                Ok(())
            }
            Facade::Shared(shared) => {
                shared.ingest_batch(batch);
                Ok(())
            }
            Facade::Sharded(engine) | Facade::Serving { engine, .. } => {
                engine.ingest_batch(batch)?;
                engine.flush()
            }
        }
    }

    pub fn query(&mut self, query: &RcDvq) -> Result<QueryOutcome, LatestError> {
        let options = QueryOptions::new();
        match self {
            Facade::Latest(latest) => Ok(latest.query(query, options)),
            Facade::Shared(shared) => shared.query(query, options),
            Facade::Sharded(engine) => engine.query(query, options),
            Facade::Serving { front, .. } => {
                let ticket = front.submit(vec![query.clone()], options)?;
                front
                    .wait(ticket)?
                    .pop()
                    .ok_or(LatestError::PipelineShutDown)
            }
        }
    }

    pub fn query_batch(&mut self, queries: &[RcDvq]) -> Result<Vec<QueryOutcome>, LatestError> {
        let options = QueryOptions::new();
        match self {
            Facade::Latest(latest) => Ok(latest.query_batch(queries, options)),
            Facade::Shared(shared) => shared.query_batch(queries, options),
            Facade::Sharded(engine) => engine.query_batch(queries, options),
            Facade::Serving { front, .. } => {
                let ticket = front.submit(queries.to_vec(), options)?;
                front.wait(ticket)
            }
        }
    }

    /// The engine's own counters (merged across shards where there are
    /// several).
    pub fn metrics_snapshot(&self) -> Result<MetricsSnapshot, LatestError> {
        match self {
            Facade::Latest(latest) => Ok(latest.metrics_snapshot()),
            Facade::Shared(shared) => Ok(shared.metrics_snapshot()),
            Facade::Sharded(engine) | Facade::Serving { engine, .. } => engine.metrics_snapshot(),
        }
    }

    pub fn phase(&self) -> Result<PhaseTag, LatestError> {
        match self {
            Facade::Latest(latest) => Ok(latest.phase()),
            Facade::Shared(shared) => Ok(shared.phase()),
            _ => Ok(self.metrics_snapshot()?.phase),
        }
    }

    /// The unsharded engine itself, for the hooks only it has
    /// (`debug_force_prefill`, `snapshot_bytes`).
    pub fn as_latest(&mut self) -> Option<&mut Latest> {
        match self {
            Facade::Latest(latest) => Some(latest),
            _ => None,
        }
    }
}
