//! Fault-injection validation of the happens-before race detector.
//!
//! The detector is only trustworthy if it (a) reports nothing on the
//! correct DDI_ACC protocol and (b) catches deliberately broken variants.
//! Broken protocols are injected through the one fault mechanism — a
//! [`FaultPlan`] carrying a [`ProtocolFault`] attached to the world — so
//! ordinary `acc_col` call sites exercise the broken path with no
//! test-only entry points. These tests assert both broken variants are
//! flagged with actionable two-site reports while the unmodified protocol
//! passes cleanly, up to a full FCI solve.

use fci_check::RaceDetector;
use fci_ddi::{
    AccessRecorder, Backend, CheckConfig, Ddi, DdiAccess, DistMatrix, FaultConfig, FaultPlan,
    ProtocolFault,
};
use fci_scf::MoIntegrals;
use std::sync::{Arc, Mutex};

/// A plan whose only fault is the given broken accumulate protocol.
fn protocol_plan(pf: Option<ProtocolFault>) -> Arc<FaultPlan> {
    Arc::new(FaultPlan::new(FaultConfig {
        protocol: pf,
        ..FaultConfig::quiet(1)
    }))
}

/// All-ranks-accumulate-into-all-columns, the σ pattern, with a chosen
/// protocol fault injected via the fault plan; returns the race reports.
fn run_with_fault(pf: Option<ProtocolFault>) -> Vec<fci_check::RaceReport> {
    let nproc = 4;
    let detector = Arc::new(RaceDetector::new());
    let ddi = Ddi::new(nproc, Backend::Threads);
    ddi.attach_recorder(detector.clone());
    ddi.attach_faults(protocol_plan(pf));
    let m = DistMatrix::zeros(16, 8, nproc);
    ddi.adopt(&m);
    ddi.run(|rank, stats| {
        let buf = vec![1.0; 16];
        for col in 0..8 {
            m.acc_col(rank, col, &buf, stats);
        }
    });
    detector.races()
}

#[test]
fn correct_protocol_passes_cleanly() {
    let races = run_with_fault(None);
    assert!(races.is_empty(), "false positives: {races:?}");
}

#[test]
fn skipped_fence_is_flagged() {
    let races = run_with_fault(Some(ProtocolFault::SkipFence));
    assert!(!races.is_empty(), "missing fence went undetected");
    // Actionable report: both access sites named, with ranks and columns.
    let msg = races[0].to_string();
    assert!(msg.contains("RACE on mat"), "{msg}");
    assert!(msg.contains("rank"), "{msg}");
    assert!(msg.contains("ddi_acc"), "{msg}");
    assert_ne!(races[0].first.rank, races[0].second.rank);
}

#[test]
fn skipped_lock_is_flagged() {
    let races = run_with_fault(Some(ProtocolFault::SkipLock));
    assert!(!races.is_empty(), "missing lock went undetected");
    let msg = races[0].to_string();
    assert!(msg.contains("no lock/fence/barrier edge"), "{msg}");
    assert_ne!(races[0].first.rank, races[0].second.rank);
}

/// Recorder that keeps every protocol event, in order.
#[derive(Default)]
struct Stream(Mutex<Vec<DdiAccess>>);

impl AccessRecorder for Stream {
    fn record(&self, access: &DdiAccess) {
        self.0.lock().expect("stream lock").push(access.clone());
    }
}

/// The recorded streams of the three protocols reach the online verdicts
/// when fed to a detector, and the skip-fence fixture is honest: step for
/// step the correct protocol's record stream, minus the fences.
#[test]
fn skip_fence_stream_is_the_correct_stream_minus_its_fences() {
    let mut streams = Vec::new();
    for (pf, expect_races) in [
        (None, false),
        (Some(ProtocolFault::SkipFence), true),
        (Some(ProtocolFault::SkipLock), true),
    ] {
        let nproc = 3;
        let stream = Arc::new(Stream::default());
        let ddi = Ddi::new(nproc, Backend::Serial);
        ddi.attach_recorder(stream.clone());
        ddi.attach_faults(protocol_plan(pf));
        let m = DistMatrix::zeros(8, 6, nproc);
        ddi.adopt(&m);
        ddi.run(|rank, stats| {
            let buf = vec![1.0; 8];
            for col in 0..6 {
                m.acc_col(rank, col, &buf, stats);
            }
        });
        let accesses = std::mem::take(&mut *stream.0.lock().expect("stream lock"));
        assert!(!accesses.is_empty());
        let detector = RaceDetector::new();
        for a in &accesses {
            detector.record(a);
        }
        let races = detector.races();
        assert_eq!(
            !races.is_empty(),
            expect_races,
            "fault {pf:?}: wrong verdict on the recorded stream ({} reports)",
            races.len()
        );
        streams.push(accesses);
    }
    // The skip-fence fixture runs the production accumulate body with
    // only its fence record switched off.
    let steps = |evs: &[DdiAccess]| -> Vec<_> {
        evs.iter()
            .filter(|e| !matches!(e, DdiAccess::Fence { .. }))
            .map(std::mem::discriminant)
            .collect()
    };
    let (correct, skip_fence) = (&streams[0], &streams[1]);
    assert_eq!(steps(skip_fence), steps(correct));
    assert_eq!(
        steps(skip_fence).len(),
        skip_fence.len(),
        "a fence was recorded"
    );
    assert!(steps(correct).len() < correct.len());
}

/// The production solver, threads backend, online detector: the full
/// DDI_GET/DDI_ACC traffic of a real (small) FCI run must be race-free,
/// and checking must not perturb the physics.
#[test]
fn full_solve_is_race_free_online() {
    let detector = Arc::new(RaceDetector::new());
    let mo = MoIntegrals::hubbard_chain(4, 1.0, 2.0, false);
    let opts = fci_core::FciOptions {
        nproc: 4,
        backend: Backend::Threads,
        method: fci_core::DiagMethod::Davidson,
        check: CheckConfig::online(detector.clone()),
        ..Default::default()
    };
    let checked = fci_core::solve(&mo, 2, 2, 0, &opts);
    let plain = fci_core::solve(
        &mo,
        2,
        2,
        0,
        &fci_core::FciOptions {
            nproc: 4,
            backend: Backend::Threads,
            method: fci_core::DiagMethod::Davidson,
            ..Default::default()
        },
    );
    assert!(checked.converged);
    let races = detector.races();
    assert!(races.is_empty(), "production protocol raced: {races:?}");
    assert!(detector.nevents() > 0, "detector saw no protocol events");
    assert_eq!(
        checked.energy.to_bits(),
        plain.energy.to_bits(),
        "attaching the detector changed the answer"
    );
}
