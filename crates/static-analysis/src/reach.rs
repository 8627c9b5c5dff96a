//! Entry-point discovery and reachability analysis.
//!
//! The paper conducts "reachability analysis from the app's entry points,
//! including life-cycle callbacks (e.g., `Activity.onCreate()`), major
//! components' entry functions (e.g., `query()` in content provider), and
//! UI related callbacks (e.g., `onClick()`)" and ignores sensitive APIs
//! with no feasible path from an entry point (dead code).

use crate::apg::{lifecycle_methods, Apg, MethodSet};
use crate::callbacks::UI_CALLBACKS;

/// Collects the entry-point method ids of an APG, each once.
///
/// Entry points: lifecycle methods of manifest components (in manifest
/// order), then UI callbacks in any application class (XML-wired
/// handlers, in id order). Lifecycle-named methods of classes the
/// manifest does not declare are not entries: the paper starts only from
/// declared components.
pub fn entry_points(apg: &Apg) -> Vec<u32> {
    let mut entries = apg.lifecycle_entries().to_vec();
    for id in 0..apg.method_count() as u32 {
        let (_, m) = apg.method_def(id);
        if UI_CALLBACKS.contains(&m.name.as_str()) && !apg.lifecycle_entries().contains(&id) {
            entries.push(id);
        }
    }
    entries
}

/// Returns the set of methods reachable from the entry points over call,
/// implicit-callback, and intent edges: a breadth-first walk of the
/// APG's CSR rows.
pub fn reachable_methods(apg: &Apg) -> MethodSet {
    let mut reached = MethodSet::empty(apg.method_count());
    let mut queue = entry_points(apg);
    for &id in &queue {
        reached.insert(id);
    }
    let mut next = 0;
    while let Some(&id) = queue.get(next) {
        next += 1;
        for &callee in apg.callees(id) {
            if reached.insert(callee) {
                queue.push(callee);
            }
        }
    }
    reached
}

/// Convenience used by tests and ablations: is the lifecycle table sane for
/// every component kind?
pub fn lifecycle_table_covers(kind: ppchecker_apk::ComponentKind) -> bool {
    !lifecycle_methods(kind).is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apg::Apg;
    use ppchecker_apk::{Apk, ComponentKind, Dex, Manifest};

    fn apk_with_dead_code() -> Apk {
        let mut manifest = Manifest::new("com.x");
        manifest.add_component(ComponentKind::Activity, "com.x.Main", true);
        let dex = Dex::builder()
            .class("com.x.Main", |c| {
                c.extends("android.app.Activity");
                c.method("onCreate", 1, |m| {
                    m.invoke_virtual("com.x.Main", "live", &[0], None);
                });
                c.method("live", 1, |_| {});
                c.method("dead", 1, |m| {
                    m.invoke_virtual(
                        "android.telephony.TelephonyManager",
                        "getDeviceId",
                        &[0],
                        Some(1),
                    );
                });
            })
            .build();
        Apk::new(manifest, dex)
    }

    #[test]
    fn entry_points_include_lifecycle() {
        let apg = Apg::build(&apk_with_dead_code()).unwrap();
        let entries = entry_points(&apg);
        let on_create = apg.method_id("com.x.Main", "onCreate").unwrap();
        assert!(entries.contains(&on_create));
    }

    #[test]
    fn dead_method_is_unreachable() {
        let apg = Apg::build(&apk_with_dead_code()).unwrap();
        let reach = reachable_methods(&apg);
        let live = apg.method_id("com.x.Main", "live").unwrap();
        let dead = apg.method_id("com.x.Main", "dead").unwrap();
        assert!(reach.contains(live));
        assert!(!reach.contains(dead));
        assert_eq!(reach.len(), 2);
    }

    #[test]
    fn ui_callbacks_are_entries() {
        let mut manifest = Manifest::new("com.x");
        manifest.add_component(ComponentKind::Activity, "com.x.Main", true);
        let dex = Dex::builder()
            .class("com.x.Main", |c| {
                c.method("onCreate", 1, |_| {});
            })
            .class("com.x.ClickHandler", |c| {
                c.method("onClick", 1, |m| {
                    m.invoke_virtual("com.x.Worker", "go", &[0], None);
                });
            })
            .class("com.x.Worker", |c| {
                c.method("go", 1, |_| {});
            })
            .build();
        let apg = Apg::build(&Apk::new(manifest, dex)).unwrap();
        let reach = reachable_methods(&apg);
        let worker = apg.method_id("com.x.Worker", "go").unwrap();
        assert!(reach.contains(worker));
    }

    #[test]
    fn reachability_through_implicit_callback() {
        let mut manifest = Manifest::new("com.x");
        manifest.add_component(ComponentKind::Activity, "com.x.Main", true);
        let dex = Dex::builder()
            .class("com.x.Main", |c| {
                c.method("onCreate", 1, |m| {
                    m.new_instance(2, "com.x.Task");
                    m.invoke_virtual("java.lang.Thread", "start", &[2], None);
                });
            })
            .class("com.x.Task", |c| {
                c.implements("java.lang.Runnable");
                c.method("run", 1, |m| {
                    m.invoke_virtual("com.x.Deep", "fetch", &[0], None);
                });
            })
            .class("com.x.Deep", |c| {
                c.method("fetch", 1, |_| {});
            })
            .build();
        let apg = Apg::build(&Apk::new(manifest, dex)).unwrap();
        let reach = reachable_methods(&apg);
        let deep = apg.method_id("com.x.Deep", "fetch").unwrap();
        assert!(reach.contains(deep));
    }

    #[test]
    fn entry_points_are_deterministic() {
        // Many UI-callback classes: two independently built APGs must
        // agree exactly.
        let mut manifest = Manifest::new("com.x");
        manifest.add_component(ComponentKind::Activity, "com.x.Main", true);
        let mut builder = Dex::builder().class("com.x.Main", |c| {
            c.extends("android.app.Activity");
            c.method("onCreate", 1, |_| {});
        });
        for i in 0..24 {
            builder = builder.class(&format!("com.x.Handler{i}"), |c| {
                c.method("onClick", 1, |_| {});
                c.method("onTouch", 1, |_| {});
            });
        }
        let apk = Apk::new(manifest, builder.build());
        let a = Apg::build(&apk).unwrap();
        let b = Apg::build(&apk).unwrap();
        let ea = entry_points(&a);
        let eb = entry_points(&b);
        assert_eq!(ea.len(), 49);
        // Method ids are assigned in dex declaration order, so the id
        // vectors match between the two builds.
        assert_eq!(ea, eb);
    }

    #[test]
    fn lifecycle_tables_nonempty() {
        for kind in [
            ComponentKind::Activity,
            ComponentKind::Service,
            ComponentKind::Receiver,
            ComponentKind::Provider,
        ] {
            assert!(lifecycle_table_covers(kind));
        }
    }
}
