//! Reproduction harness for every table and figure in the RAT paper.
//!
//! Each `render_*` function regenerates one published artifact from this
//! workspace's implementations — worksheet predictions from [`rat_core`],
//! "actual" measurements from [`fpga_sim`] runs of the [`rat_apps`] designs —
//! and lays it side by side with the paper's reported numbers
//! (see [`paper`] for provenance, including which of the paper's values are
//! reconstructed from prose because the available scan is OCR-damaged).
//!
//! The [`all_artifacts`] entry point drives the `rat reproduce` CLI and the
//! EXPERIMENTS.md log. [`all_artifacts_with`] renders the thirteen artifacts
//! as independent jobs on an analysis [`Engine`]; simulator-backed tables
//! share measurements through the [`fpga_sim::cache`] memoization layer, so a
//! second `reproduce all` in the same process (or against a persisted cache)
//! re-simulates nothing.

#![warn(missing_docs)]
#![cfg_attr(not(test), warn(unused_crate_dependencies))]

pub mod figures;
pub mod hotbench;
pub mod paper;
pub mod tables;

use rat_core::engine::Engine;

/// One regenerated artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Artifact {
    /// Identifier, e.g. `table3` or `figure2`.
    pub id: &'static str,
    /// Title matching the paper's caption.
    pub title: &'static str,
    /// Rendered text.
    pub body: String,
}

/// `(id, title)` of every artifact, in paper order.
const MANIFEST: [(&str, &str); 13] = [
    ("table1", "Input parameters for RAT analysis"),
    ("table2", "Input parameters of 1-D PDF"),
    ("table3", "Performance parameters of 1-D PDF"),
    ("table4", "Resource usage of 1-D PDF (LX100)"),
    ("table5", "Input parameters of 2-D PDF (LX100)"),
    ("table6", "Performance parameters of 2-D PDF"),
    ("table7", "Resource usage of 2-D PDF (LX100)"),
    ("table8", "Input parameters of MD"),
    ("table9", "Performance parameters of MD"),
    ("table10", "Resource usage of MD (EP2S180)"),
    ("figure1", "Overview of RAT methodology"),
    ("figure2", "Example overlap scenarios"),
    ("figure3", "Architecture of 1-D PDF algorithm"),
];

fn render_body(id: &str, fast: bool) -> String {
    match id {
        "table1" => tables::render_table1(),
        "table2" => tables::render_table2(),
        "table3" => tables::render_table3(),
        "table4" => tables::render_table4(),
        "table5" => tables::render_table5(),
        "table6" => tables::render_table6(),
        "table7" => tables::render_table7(),
        "table8" => tables::render_table8(),
        "table9" => tables::render_table9(fast),
        "table10" => tables::render_table10(),
        "figure1" => figures::render_figure1(),
        "figure2" => figures::render_figure2(),
        "figure3" => figures::render_figure3(),
        other => unreachable!("unknown artifact id {other}"),
    }
}

/// Regenerate every table and figure.
///
/// `fast` skips the paper-scale MD neighbor count (2.7e8 distance checks) in
/// favour of a proportionally scaled system; full-scale reproduction is the
/// default for release binaries.
pub fn all_artifacts(fast: bool) -> Vec<Artifact> {
    all_artifacts_with(&Engine::sequential(), fast)
}

/// [`all_artifacts`], with each artifact rendered as an independent job on
/// `engine`. Artifacts come back in paper order regardless of thread count.
pub fn all_artifacts_with(engine: &Engine, fast: bool) -> Vec<Artifact> {
    engine.run(MANIFEST.len(), |i| {
        let (id, title) = MANIFEST[i];
        Artifact {
            id,
            title,
            body: render_body(id, fast),
        }
    })
}

/// Look up one artifact by id (`table1`..`table10`, `figure1`..`figure3`).
pub fn artifact(id: &str, fast: bool) -> Option<Artifact> {
    MANIFEST
        .iter()
        .find(|(known, _)| *known == id)
        .map(|&(id, title)| Artifact {
            id,
            title,
            body: render_body(id, fast),
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rat_core::engine::EngineConfig;

    #[test]
    fn all_thirteen_artifacts_render() {
        let arts = all_artifacts(true);
        assert_eq!(arts.len(), 13);
        for a in &arts {
            assert!(!a.body.trim().is_empty(), "{} rendered empty", a.id);
        }
    }

    #[test]
    fn artifact_lookup() {
        assert!(artifact("table3", true).is_some());
        assert!(artifact("figure2", true).is_some());
        assert!(artifact("table99", true).is_none());
    }

    #[test]
    fn lookup_matches_batch_output() {
        let batch = all_artifacts(true);
        let single = artifact("table9", true).unwrap();
        assert_eq!(batch.iter().find(|a| a.id == "table9").unwrap(), &single);
    }

    #[test]
    fn parallel_render_is_identical_to_sequential() {
        let sequential = all_artifacts(true);
        let parallel = all_artifacts_with(&Engine::new(EngineConfig::default().with_jobs(8)), true);
        assert_eq!(sequential, parallel);
    }
}
