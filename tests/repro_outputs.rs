//! The checked-in `results/repro_<id>.txt` files against what `crx
//! repro <id>` prints. Kept in its own test binary so its CPU load never
//! overlaps the wall-clock speed assertions in `experiment_shapes.rs`.

/// The checked-in outputs of the cheap deterministic reports are what
/// `crx repro <id>` prints today, byte for byte. These reports ignore
/// the fidelity knobs; the simulation-backed figures are compared in
/// CI against a release build.
#[test]
fn checked_in_repro_outputs_are_current() {
    use cr_bench::{repro, ReproOpts};
    let results =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    for id in ["fig1", "fig3", "fig4", "fig5", "table1", "ablations"] {
        let path = results.join(format!("repro_{id}.txt"));
        let want = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let got = repro::render(id, &ReproOpts::default()).unwrap();
        assert!(
            got == want,
            "results/repro_{id}.txt is stale; regenerate it with \
             `crx repro {id} --replicas 6 --failures 3000 --mb 16`"
        );
    }
}
