//! # ppchecker-static
//!
//! The static analysis module of the PPChecker reproduction: builds the
//! method layer of an Android property graph from a (simulated) APK,
//! discovers entry points, runs reachability, resolves content-provider
//! URIs, performs interprocedural taint analysis, and reports the
//! information an app collects (`Collect_code`) and retains
//! (`Retain_code`), plus the third-party libraries it embeds.
//!
//! The APG ([`apg`]) is a dense method graph compiled straight from the
//! dex: `u32` method ids, one CSR row of call, implicit-callback and
//! intent edges per id, and the manifest's lifecycle entries. Method ids
//! are the method identity end to end — reachability returns a
//! [`apg::MethodSet`] over them, and the scan and both taint engines index
//! by them. The full property graph, with class, instruction and
//! component nodes, is an export built on demand ([`graph::Graph::from_apk`],
//! [`graph::to_dot`]).
//!
//! Substitutes, each implemented from scratch:
//! - ValHunter-style APG: the dense method graph ([`apg`]) and the
//!   property-graph export ([`graph`])
//! - FlowDroid-style taint analysis ([`taint`], [`sinks`])
//! - EdgeMiner-style implicit callbacks ([`callbacks`])
//! - IccTA-style intent edges (in [`apg`])
//! - PScout-style URI tables ([`uris`]) and the 68-API table ([`sensitive`])
//!
//! # Examples
//!
//! ```
//! use ppchecker_apk::{Apk, Dex, Manifest, ComponentKind, PrivateInfo};
//! use ppchecker_static::analyze;
//!
//! let mut manifest = Manifest::new("com.example.app");
//! manifest.add_component(ComponentKind::Activity, "com.example.app.Main", true);
//! let dex = Dex::builder()
//!     .class("com.example.app.Main", |c| {
//!         c.method("onCreate", 1, |m| {
//!             m.invoke_virtual("android.location.Location", "getLatitude", &[0], Some(1));
//!         });
//!     })
//!     .build();
//! let report = analyze(&Apk::new(manifest, dex))?;
//! assert!(report.collect_code().contains(&PrivateInfo::Location));
//! # Ok::<(), ppchecker_apk::ParseDexError>(())
//! ```

pub mod analysis;
pub mod apg;
pub mod callbacks;
pub mod consts;
pub mod graph;
mod kernel;
pub mod libs;
pub mod reach;
pub mod sensitive;
pub mod sinks;
pub mod summary;
pub mod taint;
pub mod uris;

pub use analysis::{
    analyze, analyze_with, analyze_with_cache, AnalysisOptions, Callsite, StaticReport,
};
pub use apg::{Apg, MethodSet};
pub use libs::{detect_libs, KnownLib, LibKind, KNOWN_LIBS};
pub use sinks::SinkKind;
pub use summary::TaintSummaryCache;
pub use taint::Leak;
