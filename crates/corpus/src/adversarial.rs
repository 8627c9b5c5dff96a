//! Adversarial scenarios from the paper's introduction (§I):
//!
//! 1. **Repackaged apps** — "the unrevealed behaviors in an incomplete
//!    privacy policy may come from the malicious component of a repackaged
//!    app": a benign app is republished with an injected component that
//!    harvests data behind the original (now incomplete) policy.
//! 2. **Deceptive policies** — "an adversary can create an incorrect
//!    privacy policy to fool users": the policy loudly denies exactly the
//!    behaviours the app performs.

use crate::generate::generate_app;
use crate::plan::AppSpec;
use ppchecker_apk::{Apk, Dex, Insn, PrivateInfo};
use ppchecker_core::AppInput;
use ppchecker_policy::VerbCategory;

/// Repackages a (presumed benign) app: injects a malicious class that
/// harvests the given information and exfiltrates it over the network,
/// wired into the app's `onCreate` — exactly the repackaging pattern the
/// paper's intro describes. The policy is left untouched, so a previously
/// complete policy becomes incomplete.
pub fn repackage(app: &AppInput, stolen: &[PrivateInfo]) -> AppInput {
    let mut dex = Dex::clone(&*app.apk.dex().expect("input app has a readable dex"));
    let mal_class = format!("{}.update.SyncHelper", app.package);

    // The injected payload: harvest each target and push it to a C2 server.
    let mut payload = ppchecker_apk::Method::new("exfiltrate", 1);
    let mut reg = 2u32;
    for &info in stolen {
        let insn = match info {
            PrivateInfo::Contact => {
                payload.instructions.push(Insn::ConstString {
                    dst: reg + 1,
                    value: "content://com.android.contacts".to_string(),
                });
                Insn::Invoke {
                    kind: ppchecker_apk::InvokeKind::Virtual,
                    class: "android.content.ContentResolver".to_string(),
                    method: "query".to_string(),
                    args: vec![0, reg + 1],
                    dst: Some(reg),
                }
            }
            PrivateInfo::Location => Insn::Invoke {
                kind: ppchecker_apk::InvokeKind::Virtual,
                class: "android.location.Location".to_string(),
                method: "getLatitude".to_string(),
                args: vec![0],
                dst: Some(reg),
            },
            _ => Insn::Invoke {
                kind: ppchecker_apk::InvokeKind::Virtual,
                class: "android.telephony.TelephonyManager".to_string(),
                method: "getDeviceId".to_string(),
                args: vec![0],
                dst: Some(reg),
            },
        };
        payload.instructions.push(insn);
        payload.instructions.push(Insn::Invoke {
            kind: ppchecker_apk::InvokeKind::Virtual,
            class: "java.io.OutputStream".to_string(),
            method: "write".to_string(),
            args: vec![reg],
            dst: None,
        });
        reg += 2;
    }
    payload.instructions.push(Insn::Return { src: None });
    dex.classes.push(ppchecker_apk::Class {
        name: mal_class.clone(),
        superclass: "java.lang.Object".to_string(),
        interfaces: vec![],
        methods: vec![payload],
    });

    // Wire the payload into the main activity's onCreate so it is
    // reachable.
    if let Some(main) = app.apk.manifest.main_activity().map(|c| c.class_name.clone()) {
        if let Some(class) = dex.classes.iter_mut().find(|c| c.name == main) {
            if let Some(m) = class.methods.iter_mut().find(|m| m.name == "onCreate") {
                let at = m.instructions.len().saturating_sub(1);
                m.instructions.insert(
                    at,
                    Insn::Invoke {
                        kind: ppchecker_apk::InvokeKind::Virtual,
                        class: mal_class,
                        method: "exfiltrate".to_string(),
                        args: vec![0],
                        dst: None,
                    },
                );
            }
        }
    }

    let mut manifest = app.apk.manifest.clone();
    for &info in stolen {
        if let Some(p) = info.required_permission() {
            manifest.add_permission(p);
        }
    }
    AppInput {
        package: app.package.clone(),
        policy_html: app.policy_html.clone(),
        description: app.description.clone(),
        apk: Apk::new(manifest, dex),
        labels: app.labels.clone(),
    }
}

/// Builds a deceptive app: the policy explicitly denies the behaviours the
/// dex performs (the paper's "adversary can create an incorrect privacy
/// policy to fool users").
pub fn deceptive_app(seed: u64) -> AppInput {
    let spec = AppSpec {
        index: 999_999 % crate::plan::APP_COUNT,
        code_collect: vec![(PrivateInfo::Contact, true), (PrivateInfo::Location, false)],
        policy_cover: vec![PrivateInfo::Email],
        policy_deny: vec![
            (VerbCategory::Collect, PrivateInfo::Location, true),
            (VerbCategory::Retain, PrivateInfo::Contact, true),
        ],
        ..AppSpec::default()
    };
    generate_app(&spec, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::small_dataset;
    use ppchecker_core::PPChecker;

    #[test]
    fn repackaging_breaks_a_clean_app() {
        // Take a clean app from the corpus (index 500 has no plants) and
        // repackage it with a contact stealer.
        let dataset = small_dataset(42, 501);
        let clean = &dataset.apps[500];
        assert!(!clean.spec.truth.has_any_problem(), "picked app must be clean");
        let checker = PPChecker::new();
        let before = checker.check_app(&clean.input).unwrap();
        assert!(!before.is_incomplete(), "{before}");

        let repackaged = repackage(&clean.input, &[PrivateInfo::Contact]);
        let after = checker.check_app(&repackaged).unwrap();
        assert!(after.is_incomplete(), "{after}");
        assert!(after.missed_via_code().any(|m| m.info == PrivateInfo::Contact && m.retained));
    }

    #[test]
    fn deceptive_policy_is_flagged_incorrect() {
        let app = deceptive_app(7);
        let report = PPChecker::new().check_app(&app).unwrap();
        assert!(report.is_incorrect(), "{report}");
        assert!(report
            .incorrect
            .iter()
            .any(|f| f.info == PrivateInfo::Contact && f.category == VerbCategory::Retain));
        assert!(report
            .incorrect
            .iter()
            .any(|f| f.info == PrivateInfo::Location && f.category == VerbCategory::Collect));
    }

    #[test]
    fn repackaged_payload_exfiltrates_over_network() {
        let dataset = small_dataset(42, 501);
        let repackaged = repackage(&dataset.apps[500].input, &[PrivateInfo::Location]);
        let report = ppchecker_static::analyze(&repackaged.apk).unwrap();
        assert!(report
            .retained
            .iter()
            .any(|l| l.info == PrivateInfo::Location
                && l.sink == ppchecker_static::SinkKind::Network));
    }
}
