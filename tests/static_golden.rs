//! Golden snapshots of the static analysis: every `StaticReport` field,
//! rendered in a canonical text form, for the 1,197-app paper corpus, the
//! first 2,000 scale-corpus apps (seed 7) and a hand-built set of dexes
//! that exercise the corners of method identity and call resolution:
//! duplicate method declarations, duplicate class names, class-hierarchy
//! dispatch through a 3-deep superclass chain, listeners reached through
//! `move` chains, `setClass` → `startService` intent edges and a packed
//! dex.
//!
//! The snapshots in `tests/golden/static_reports_*.txt` were rendered by
//! the property-graph APG (one node per class, method and instruction)
//! before the dense method graph replaced it; every report must stay
//! byte-identical.
//!
//! Regenerate (only when static-analysis semantics intentionally change):
//! `UPDATE_GOLDEN=1 cargo test --test static_golden`

use ppchecker_apk::{Apk, ComponentKind, Dex, Manifest};
use ppchecker_corpus::{paper_dataset, stream_scaled};
use ppchecker_static::{analyze_with_cache, AnalysisOptions, StaticReport, TaintSummaryCache};
use std::collections::BTreeMap;
use std::fmt::Write;
use std::path::Path;

/// One line per report: `libs`, counts, both collection maps and the
/// retained leaks, each in the report's own order.
fn render(label: &str, report: Result<StaticReport, ppchecker_apk::ParseDexError>) -> String {
    let report = match report {
        Ok(report) => report,
        Err(e) => return format!("{label} error={e}\n"),
    };
    let sites = |map: &BTreeMap<ppchecker_apk::PrivateInfo, Vec<ppchecker_static::Callsite>>| {
        let mut out = String::new();
        for (info, sites) in map {
            write!(out, " {info:?}[").unwrap();
            for (i, s) in sites.iter().enumerate() {
                let sep = if i == 0 { "" } else { "," };
                write!(out, "{sep}{}.{}>{}", s.class, s.method, s.api).unwrap();
            }
            out.push(']');
        }
        out
    };
    let libs: Vec<&str> = report.libs.iter().map(|l| l.id).collect();
    let mut line = format!(
        "{label} libs=[{}] reachable={} unreachable_sensitive={} collected={{{}}} lib_collected={{{}}} retained=[",
        libs.join(","),
        report.reachable_method_count,
        report.unreachable_sensitive_calls,
        sites(&report.collected),
        sites(&report.lib_collected),
    );
    for (i, l) in report.retained.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        write!(
            line,
            "{sep}{:?}/{:?}:{}->{}@{}",
            l.info, l.sink, l.source_api, l.sink_api, l.at_method
        )
        .unwrap();
    }
    line.push_str("]\n");
    line
}

fn check_golden(name: &str, rendered: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, rendered).expect("write golden snapshot");
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .expect("golden snapshot missing — run with UPDATE_GOLDEN=1 to create it");
    if rendered != golden {
        let mismatch = rendered.lines().zip(golden.lines()).enumerate().find(|(_, (a, b))| a != b);
        match mismatch {
            Some((i, (got, want))) => panic!(
                "{name}: static report diverged at line {}:\n  got:  {got}\n  want: {want}",
                i + 1
            ),
            None => panic!(
                "{name}: output diverged in length: got {} lines, want {}",
                rendered.lines().count(),
                golden.lines().count()
            ),
        }
    }
}

/// Corpus apps go through one shared summary cache, as in the engine.
fn render_apps<'a>(apps: impl Iterator<Item = (String, &'a Apk)>) -> String {
    let cache = TaintSummaryCache::new();
    apps.map(|(label, apk)| {
        render(&label, analyze_with_cache(apk, AnalysisOptions::default(), Some(&cache)))
    })
    .collect()
}

#[test]
fn paper_corpus_static_reports_match_snapshot() {
    let dataset = paper_dataset(42);
    let rendered = render_apps(dataset.iter_apps().map(|app| (app.package.clone(), &app.apk)));
    assert_eq!(rendered.lines().count(), 1_197);
    check_golden("static_reports_paper.txt", &rendered);
}

#[test]
fn scale_corpus_static_reports_match_snapshot() {
    let apps: Vec<_> = stream_scaled(7, 2_000).map(|app| app.input).collect();
    let rendered = render_apps(apps.iter().map(|app| (app.package.clone(), &app.apk)));
    check_golden("static_reports_scale.txt", &rendered);
}

/// Each hand-built app under every ablation, without a summary cache.
#[test]
fn hand_built_static_reports_match_snapshot() {
    let mut rendered = String::new();
    for (name, apk) in hand_built() {
        for (tag, reachability, uri_analysis) in
            [("full", true, true), ("no-reach", false, true), ("no-uri", true, false)]
        {
            let opts = AnalysisOptions { reachability, uri_analysis };
            rendered
                .push_str(&render(&format!("{name}/{tag}"), analyze_with_cache(&apk, opts, None)));
        }
    }
    check_golden("static_reports_handbuilt.txt", &rendered);
}

fn manifest(components: &[(ComponentKind, &str)]) -> Manifest {
    let mut m = Manifest::new("com.x");
    for (i, &(kind, class)) in components.iter().enumerate() {
        m.add_component(kind, class, i == 0);
    }
    m
}

const LOCATION: (&str, &str) = ("android.location.Location", "getLatitude");
const DEVICE_ID: (&str, &str) = ("android.telephony.TelephonyManager", "getDeviceId");
const PHONE: (&str, &str) = ("android.telephony.TelephonyManager", "getLine1Number");

fn hand_built() -> Vec<(&'static str, Apk)> {
    let main = [(ComponentKind::Activity, "com.x.Main")];
    let mut apps = Vec::new();

    // Two bodies of `Main.onCreate`: the entry's call row is the union of
    // both bodies' call sites, taint reads the first body, and the scan
    // counts the sensitive calls of both.
    let dex = Dex::builder()
        .class("com.x.Main", |c| {
            c.extends("android.app.Activity");
            c.method("onCreate", 1, |m| {
                m.invoke_virtual("com.x.Helper", "first", &[0], None);
                m.invoke_virtual(LOCATION.0, LOCATION.1, &[0], Some(1));
                m.invoke_static("android.util.Log", "i", &[1], None);
            });
            c.method("onCreate", 1, |m| {
                m.invoke_virtual("com.x.Helper", "second", &[0], None);
                m.invoke_virtual(DEVICE_ID.0, DEVICE_ID.1, &[0], Some(1));
                m.invoke_static("android.util.Log", "e", &[1], None);
            });
        })
        .class("com.x.Helper", |c| {
            c.method("first", 1, |m| {
                m.invoke_virtual(PHONE.0, PHONE.1, &[0], Some(1));
            });
            c.method("second", 1, |m| {
                m.invoke_virtual(PHONE.0, PHONE.1, &[0], Some(1));
                m.invoke_virtual("java.io.FileOutputStream", "write", &[1], None);
                m.invoke_virtual("com.x.Helper", "twice", &[1], None);
            });
            // A duplicated callee: only its second body reaches `Deep`.
            c.method("twice", 1, |_| {});
            c.method("twice", 1, |m| {
                m.invoke_virtual("com.x.Deep", "leak", &[0], None);
            });
        })
        .class("com.x.Deep", |c| {
            c.method("leak", 1, |m| {
                m.invoke_static("android.util.Log", "w", &[0], None);
            });
        })
        .build();
    apps.push(("duplicate-method", Apk::new(manifest(&main), dex)));

    // A return chain longer than the reference engine's round cap,
    // declared twice: callee-first, then caller-first. The reference
    // engine walks methods in last-declaration order, one chain link per
    // round, so the chain's source never reaches `onCreate`'s sink.
    let dex = Dex::builder()
        .class("com.x.Main", |c| {
            let step = |c: &mut ppchecker_apk::dex::ClassBuilder, i: usize| {
                c.method(&format!("step{i}"), 0, |m| {
                    m.invoke_virtual("com.x.Main", &format!("step{}", i - 1), &[0], Some(1));
                    m.ret(Some(1));
                });
            };
            c.method("step0", 0, |m| {
                m.invoke_virtual(LOCATION.0, LOCATION.1, &[0], Some(1));
                m.ret(Some(1));
            });
            for i in 1..12 {
                step(c, i);
            }
            c.method("onCreate", 1, |m| {
                m.invoke_virtual("com.x.Main", "step11", &[0], Some(1));
                m.invoke_static("android.util.Log", "d", &[1], None);
            });
            for i in (1..12).rev() {
                step(c, i);
            }
            c.method("step0", 0, |m| {
                m.invoke_virtual(DEVICE_ID.0, DEVICE_ID.1, &[0], Some(1));
                m.ret(Some(1));
            });
        })
        .build();
    apps.push(("duplicate-method-order", Apk::new(manifest(&main), dex)));

    // One class name declared twice with different methods and
    // superclasses: name lookups see the first declaration's hierarchy.
    let dex = Dex::builder()
        .class("com.x.Main", |c| {
            c.extends("android.app.Activity");
            c.method("onCreate", 1, |m| {
                m.invoke_virtual("com.x.Util", "stash", &[0], None);
                m.invoke_virtual("com.x.Util", "spill", &[0], None);
                m.invoke_virtual("com.x.Base", "work", &[0], None);
            });
        })
        .class("com.x.Util", |c| {
            c.extends("com.x.Base");
            c.method("stash", 1, |m| {
                m.invoke_virtual(LOCATION.0, LOCATION.1, &[0], Some(1));
                m.field_put("com.x.Util", "cached", 1);
            });
        })
        .class("com.x.Base", |c| {
            c.method("work", 1, |_| {});
        })
        .class("com.x.Util", |c| {
            c.extends("java.lang.Object");
            c.method("spill", 1, |m| {
                m.field_get("com.x.Util", "cached", 2);
                m.invoke_static("android.util.Log", "i", &[2], None);
            });
            c.method("work", 1, |m| {
                m.invoke_virtual(DEVICE_ID.0, DEVICE_ID.1, &[0], Some(1));
                m.invoke_static("android.util.Log", "d", &[1], None);
            });
        })
        .build();
    apps.push(("duplicate-class", Apk::new(manifest(&main), dex)));

    // Class-hierarchy dispatch: a call on `Base.work` reaches the
    // override three superclass steps down, and a superclass cycle ends.
    let dex = Dex::builder()
        .class("com.x.Main", |c| {
            c.extends("android.app.Activity");
            c.method("onCreate", 1, |m| {
                m.invoke_virtual("com.x.Base", "work", &[0], Some(1));
                m.invoke_static("android.util.Log", "i", &[1], None);
                m.invoke_virtual("com.x.CycleA", "spin", &[0], None);
            });
        })
        .class("com.x.Leaf", |c| {
            c.extends("com.x.Mid");
            c.method("work", 1, |m| {
                m.invoke_virtual(DEVICE_ID.0, DEVICE_ID.1, &[0], Some(1));
                m.ret(Some(1));
            });
        })
        .class("com.x.Mid", |c| {
            c.extends("com.x.Upper");
            c.method("other", 1, |_| {});
        })
        .class("com.x.Upper", |c| {
            c.extends("com.x.Base");
        })
        .class("com.x.Base", |c| {
            c.extends("java.lang.Object");
            c.method("work", 1, |_| {});
        })
        .class("com.x.CycleA", |c| {
            c.extends("com.x.CycleB");
            c.method("spin", 1, |_| {});
        })
        .class("com.x.CycleB", |c| {
            c.extends("com.x.CycleA");
            c.method("spin", 1, |m| {
                m.invoke_virtual(PHONE.0, PHONE.1, &[0], Some(1));
            });
        })
        .class("com.x.Unrelated", |c| {
            c.method("work", 1, |m| {
                m.invoke_virtual(LOCATION.0, LOCATION.1, &[0], Some(1));
            });
        })
        .build();
    apps.push(("cha-three-deep", Apk::new(manifest(&main), dex)));

    // An implicit callback whose listener reaches the registration
    // through two `move`s, plus a `this` receiver.
    let dex = Dex::builder()
        .class("com.x.Main", |c| {
            c.extends("android.app.Activity");
            c.method("onCreate", 1, |m| {
                m.new_instance(2, "com.x.Task");
                m.mov(3, 2);
                m.mov(4, 3);
                m.invoke_virtual("java.lang.Thread", "start", &[4], None);
                m.invoke_virtual("android.os.Handler", "post", &[0], None);
            });
            c.method("run", 1, |m| {
                m.invoke_virtual(PHONE.0, PHONE.1, &[0], Some(1));
            });
        })
        .class("com.x.Task", |c| {
            c.implements("java.lang.Runnable");
            c.method("run", 1, |m| {
                m.invoke_virtual(LOCATION.0, LOCATION.1, &[0], Some(1));
                m.invoke_virtual("java.net.Socket", "getOutputStream", &[1], None);
                m.invoke_static("android.util.Log", "i", &[1], None);
            });
        })
        .class("com.x.Stray", |c| {
            c.method("run", 1, |m| {
                m.invoke_virtual(DEVICE_ID.0, DEVICE_ID.1, &[0], Some(1));
            });
        })
        .build();
    apps.push(("listener-move-chain", Apk::new(manifest(&main), dex)));

    // Intent edges and intent-extra taint: `setClass` → `startService`.
    let dex = Dex::builder()
        .class("com.x.Main", |c| {
            c.extends("android.app.Activity");
            c.method("onCreate", 1, |m| {
                m.invoke_virtual(LOCATION.0, LOCATION.1, &[0], Some(1));
                m.new_instance(2, "android.content.Intent");
                m.const_string(3, "com.x.Uploader");
                m.invoke_virtual("android.content.Intent", "setClass", &[2, 0, 3], None);
                m.const_string(4, "lat");
                m.invoke_virtual("android.content.Intent", "putExtra", &[2, 4, 1], None);
                m.invoke_virtual("android.app.Activity", "startService", &[0, 2], None);
            });
        })
        .class("com.x.Uploader", |c| {
            c.extends("android.app.Service");
            c.method("onCreate", 1, |m| {
                m.const_string(1, "content://sms");
                m.invoke_virtual("android.content.ContentResolver", "query", &[0, 1], Some(2));
            });
            c.method("onStartCommand", 3, |m| {
                m.const_string(4, "lat");
                m.invoke_virtual("android.content.Intent", "getStringExtra", &[1, 4], Some(5));
                m.invoke_static("android.util.Log", "i", &[5], None);
            });
        })
        .build();
    let services =
        [(ComponentKind::Activity, "com.x.Main"), (ComponentKind::Service, "com.x.Uploader")];
    apps.push(("icc-start-service", Apk::new(manifest(&services), dex)));

    // The same service, started but never declared: intent edges do not
    // need a manifest component, lifecycle entries do.
    let dex = Dex::builder()
        .class("com.x.Main", |c| {
            c.method("onCreate", 1, |m| {
                m.new_instance(2, "android.content.Intent");
                m.const_string(3, "com.x.Hidden");
                m.invoke_virtual("android.content.Intent", "setClassName", &[2, 3], None);
                m.invoke_virtual("android.content.Context", "sendBroadcast", &[0, 2], None);
            });
        })
        .class("com.x.Hidden", |c| {
            c.method("onReceive", 2, |m| {
                m.invoke_virtual(DEVICE_ID.0, DEVICE_ID.1, &[0], Some(1));
            });
        })
        .class("com.google.android.gms.ads.AdView", |c| {
            c.method("loadAd", 1, |m| {
                m.invoke_virtual(LOCATION.0, LOCATION.1, &[0], Some(1));
            });
        })
        .build();
    apps.push(("icc-undeclared-receiver", Apk::new(manifest(&main), dex)));

    // A packed dex is unpacked before analysis; a corrupt one errors.
    let dex = Dex::builder()
        .class("com.x.Main", |c| {
            c.method("onCreate", 1, |m| {
                m.invoke_virtual(DEVICE_ID.0, DEVICE_ID.1, &[0], Some(1));
                m.invoke_virtual("android.bluetooth.BluetoothOutputStream", "write", &[1], None);
            });
            c.method("onClick", 1, |m| {
                m.invoke_virtual(LOCATION.0, LOCATION.1, &[0], Some(1));
            });
        })
        .class("com.flurry.android.Agent", |c| {
            c.method("log", 1, |_| {});
        })
        .build();
    apps.push(("packed", Apk::new_packed(manifest(&main), &dex, 0x5C)));
    apps.push(("packed-corrupt", Apk::from_packed_blob(manifest(&main), vec![0x13; 40])));
    apps
}
