//! Android property graph (APG) construction, as a dense method graph.
//!
//! The paper's static module answers `Collect_code` and `Retain_code` over
//! a ValHunter-style property graph. Both queries read only its method
//! layer: which methods exist, which ones each method can transfer
//! control to, and where the app's components enter. [`Apg::build`]
//! compiles exactly that, straight from the dex:
//!
//! * every distinct `(class, method)` name gets a dense `u32` method id,
//!   assigned in declaration order, and a sorted name index;
//! * one CSR row per id holds the combined call (class-hierarchy
//!   resolved), implicit-callback (EdgeMiner substitute) and intent
//!   (IccTA substitute) edges;
//! * the lifecycle entry ids of the manifest components.
//!
//! Method ids are the method identity for reachability ([`MethodSet`]),
//! the `Collect_code` scan and both taint engines. A name declared more
//! than once keeps one id: [`Apg::method_def`] is its first body, and its
//! row is the union of the call sites of every body with that name (see
//! DESIGN.md §11).
//!
//! The full property graph, with class, instruction and component nodes,
//! is an export built on demand by [`crate::graph::Graph::from_apk`].

use crate::callbacks;
use crate::graph::EdgeKind;
use crate::libs::{self, KnownLib};
use ppchecker_apk::{
    stable_hash_classes, Apk, Class, ComponentKind, Dex, Insn, Manifest, Method, MethodRef,
    ParseDexError,
};
use std::sync::{Arc, OnceLock};

/// Lifecycle entry methods per component kind.
pub fn lifecycle_methods(kind: ComponentKind) -> &'static [&'static str] {
    match kind {
        ComponentKind::Activity => {
            &["onCreate", "onStart", "onResume", "onPause", "onStop", "onDestroy", "onRestart"]
        }
        ComponentKind::Service => &["onCreate", "onStartCommand", "onBind", "onDestroy"],
        ComponentKind::Receiver => &["onReceive"],
        ComponentKind::Provider => &["onCreate", "query", "insert", "update", "delete"],
    }
}

/// The method graph of one app.
#[derive(Debug)]
pub struct Apg {
    /// The recovered dex the graph was built from (shared with the APK
    /// when it was not packed).
    pub dex: Arc<Dex>,
    /// Method id → its first declared body.
    defs: Vec<MethodRef>,
    /// Method id of every body, in declaration order.
    body_ids: Vec<u32>,
    /// Method ids sorted by `(class, method)` name.
    by_name: Vec<u32>,
    /// CSR row offsets (`method_count + 1` entries) of the combined
    /// call, implicit-callback and intent adjacency.
    call_row: Vec<u32>,
    /// CSR columns: callee ids, sorted and deduplicated per row.
    call_col: Vec<u32>,
    /// Lifecycle entry ids of the manifest components, in manifest order,
    /// each once.
    lifecycle_entries: Vec<u32>,
    /// Some `(class, method)` name is declared more than once.
    has_duplicates: bool,
    /// Known libs embedded in the app, in table order.
    libs: Vec<&'static KnownLib>,
    /// `libs` with their content-hash keys, computed on first use.
    lib_keys: OnceLock<Vec<(&'static KnownLib, u64)>>,
}

impl Apg {
    /// Builds the method graph of an APK, unpacking the dex first if needed.
    ///
    /// # Errors
    ///
    /// Returns [`ParseDexError`] if a packed dex cannot be recovered.
    pub fn build(apk: &Apk) -> Result<Apg, ParseDexError> {
        let mut apg = Apg::index_methods(apk.dex()?);
        let mut edges: Vec<u64> = Vec::new();
        apg.for_each_edge(|body, _, to| {
            edges.push((u64::from(apg.body_ids[body]) << 32) | u64::from(to));
        });
        (apg.call_row, apg.call_col) = csr(apg.defs.len(), edges);
        apg.lifecycle_entries = apg.lifecycle_entries_of(&apk.manifest);
        Ok(apg)
    }

    /// Assigns method ids and the name index; rows and entries are empty.
    fn index_methods(dex: Arc<Dex>) -> Apg {
        let bodies: Vec<MethodRef> = dex.method_refs();
        let name = |k: u32| {
            let (class, method) = dex.method_at(bodies[k as usize]);
            (class.name.as_str(), method.name.as_str())
        };
        // Bodies by name, then declaration order: each run of equal
        // names starts with its first body.
        let mut sorted: Vec<u32> = (0..bodies.len() as u32).collect();
        sorted.sort_unstable_by(|&a, &b| name(a).cmp(&name(b)).then(a.cmp(&b)));
        let mut first_of: Vec<u32> = vec![0; bodies.len()];
        let mut has_duplicates = false;
        for (i, &k) in sorted.iter().enumerate() {
            let dup = i > 0 && name(sorted[i - 1]) == name(k);
            has_duplicates |= dup;
            first_of[k as usize] = if dup { first_of[sorted[i - 1] as usize] } else { k };
        }
        let mut defs = Vec::with_capacity(bodies.len());
        let mut body_ids = Vec::with_capacity(bodies.len());
        for (k, &r) in bodies.iter().enumerate() {
            let first = first_of[k] as usize;
            if first == k {
                body_ids.push(defs.len() as u32);
                defs.push(r);
            } else {
                body_ids.push(body_ids[first]);
            }
        }
        let by_name = sorted
            .iter()
            .filter(|&&k| first_of[k as usize] == k)
            .map(|&k| body_ids[k as usize])
            .collect();
        let libs = libs::detect_libs(&dex);
        Apg {
            dex,
            defs,
            body_ids,
            by_name,
            call_row: Vec::new(),
            call_col: Vec::new(),
            lifecycle_entries: Vec::new(),
            has_duplicates,
            libs,
            lib_keys: OnceLock::new(),
        }
    }

    /// Lifecycle methods of every manifest component that the dex defines.
    fn lifecycle_entries_of(&self, manifest: &Manifest) -> Vec<u32> {
        let mut entries: Vec<u32> = Vec::new();
        for comp in &manifest.components {
            for entry in lifecycle_methods(comp.kind) {
                if let Some(id) = self.method_id(&comp.class_name, entry) {
                    if !entries.contains(&id) {
                        entries.push(id);
                    }
                }
            }
        }
        entries
    }

    /// Number of method ids (distinct `(class, method)` names).
    pub fn method_count(&self) -> usize {
        self.defs.len()
    }

    /// The class and first declared body of method `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    pub fn method_def(&self, id: u32) -> (&Class, &Method) {
        self.dex.method_at(self.defs[id as usize])
    }

    /// The method id of every body of the dex, in declaration order (the
    /// order of [`Dex::iter_methods`]); duplicate declarations share one.
    pub fn body_ids(&self) -> &[u32] {
        &self.body_ids
    }

    /// Callee ids of `id` over the combined call, implicit-callback and
    /// intent adjacency (sorted, deduplicated).
    pub fn callees(&self, id: u32) -> &[u32] {
        let row = &self.call_row;
        &self.call_col[row[id as usize] as usize..row[id as usize + 1] as usize]
    }

    /// Zero-allocation `(class, method)` → method id lookup.
    pub fn method_id(&self, class: &str, method: &str) -> Option<u32> {
        let pos = self
            .by_name
            .binary_search_by(|&id| {
                let (c, m) = self.method_def(id);
                (c.name.as_str(), m.name.as_str()).cmp(&(class, method))
            })
            .ok()?;
        Some(self.by_name[pos])
    }

    /// Lifecycle entry ids of the manifest's components, in manifest
    /// order, each once.
    pub fn lifecycle_entries(&self) -> &[u32] {
        &self.lifecycle_entries
    }

    /// True when the dex declares some `(class, method)` name twice. The
    /// taint kernel declines such apps; the reference engine runs them.
    pub fn has_duplicate_methods(&self) -> bool {
        self.has_duplicates
    }

    /// Known third-party libs embedded in the app, in table order.
    pub fn libs(&self) -> &[&'static KnownLib] {
        &self.libs
    }

    /// [`Apg::libs`], each with the content-hash key its taint summary
    /// is cached under. Hashing runs once per APG, on first use — the dex
    /// is immutable after build — so only apps analyzed with a summary
    /// cache pay for it.
    pub fn known_lib_keys(&self) -> &[(&'static KnownLib, u64)] {
        self.lib_keys.get_or_init(|| {
            self.libs
                .iter()
                .map(|&lib| {
                    let mut classes: Vec<&Class> = self
                        .dex
                        .classes
                        .iter()
                        .filter(|c| c.name.starts_with(lib.prefix))
                        .collect();
                    classes.sort_by(|a, b| a.name.cmp(&b.name));
                    (lib, stable_hash_classes(classes.iter().copied()))
                })
                .collect()
        })
    }

    /// Calls `emit(body, kind, callee)` for every call, implicit-callback
    /// and intent edge leaving each body (declaration-order position, as
    /// in [`Apg::body_ids`]). Needs only the method ids and name index.
    pub(crate) fn for_each_edge(&self, mut emit: impl FnMut(usize, EdgeKind, u32)) {
        let hierarchy = Hierarchy::new(&self.dex);
        for (body, (class, m)) in self.dex.iter_methods().enumerate() {
            let mut strings: Vec<(u32, &str)> = Vec::new();
            let mut intents: Vec<(u32, &str)> = Vec::new();
            for (idx, insn) in m.instructions.iter().enumerate() {
                match insn {
                    Insn::ConstString { dst, value } => strings.push((*dst, value.as_str())),
                    Insn::Invoke { class: cc, method: mm, args, .. } => {
                        // Method call graph: the named class, or any class
                        // whose superclass chain reaches it (CHA).
                        if let Some(to) = self.method_id(cc, mm) {
                            emit(body, EdgeKind::Call, to);
                        }
                        for sub in hierarchy.descendants(cc) {
                            if sub.name != *cc && sub.method(mm).is_some() {
                                let to = self.method_id(&sub.name, mm).expect("declared");
                                emit(body, EdgeKind::Call, to);
                            }
                        }
                        // EdgeMiner substitute: the listener newly
                        // instantiated into an argument register, or the
                        // registering class itself ("this" receivers).
                        if let Some(cb) = callbacks::callback_for(cc, mm) {
                            for &arg in args {
                                let listener = last_new_instance(&m.instructions[..idx], arg);
                                if let Some(to) = listener.and_then(|l| self.method_id(l, cb)) {
                                    emit(body, EdgeKind::ImplicitCallback, to);
                                }
                            }
                            if let Some(to) = self.method_id(&class.name, cb) {
                                emit(body, EdgeKind::ImplicitCallback, to);
                            }
                        }
                        // IccTA substitute: `setClass`-style calls bind an
                        // intent register to a target class; a launcher
                        // call on it enters the target's lifecycle.
                        if cc == "android.content.Intent"
                            && matches!(mm.as_str(), "setClass" | "setClassName" | "setComponent")
                        {
                            let target = args.iter().skip(1).find_map(|r| latest(&strings, *r));
                            if let (Some(&intent), Some(target)) = (args.first(), target) {
                                intents.push((intent, target));
                            }
                        } else if let Some((_, entries)) =
                            LAUNCHERS.iter().find(|(name, _)| name == mm)
                        {
                            for target in args.iter().skip(1).filter_map(|r| latest(&intents, *r)) {
                                for entry in *entries {
                                    if let Some(to) = self.method_id(target, entry) {
                                        emit(body, EdgeKind::Icc, to);
                                    }
                                }
                            }
                        }
                    }
                    _ => {}
                }
            }
        }
    }
}

/// Launcher calls and the lifecycle entries they start.
const LAUNCHERS: &[(&str, &[&str])] = &[
    ("startActivity", &["onCreate"]),
    ("startService", &["onCreate", "onStartCommand"]),
    ("sendBroadcast", &["onReceive"]),
];

/// The value most recently bound to `reg` in a register → value list.
fn latest<'a>(binds: &[(u32, &'a str)], reg: u32) -> Option<&'a str> {
    binds.iter().rev().find(|&&(r, _)| r == reg).map(|&(_, v)| v)
}

/// Compiles `(from << 32 | to)` edges into CSR rows over `n` ids,
/// deduplicated per row.
fn csr(n: usize, mut edges: Vec<u64>) -> (Vec<u32>, Vec<u32>) {
    edges.sort_unstable();
    edges.dedup();
    let mut row = vec![0u32; n + 1];
    for &e in &edges {
        row[(e >> 32) as usize + 1] += 1;
    }
    for i in 0..n {
        row[i + 1] += row[i];
    }
    (row, edges.iter().map(|&e| e as u32).collect())
}

/// Class-hierarchy index of one dex, for resolving virtual calls.
struct Hierarchy<'d> {
    dex: &'d Dex,
    /// `(ancestor name, class position)` for every class and every name
    /// on its superclass chain, sorted.
    ancestors: Vec<(&'d str, u32)>,
}

impl<'d> Hierarchy<'d> {
    /// Superclass chains are walked by name — a name resolves to its
    /// first declaration — for at most 32 steps, so a cycle ends.
    fn new(dex: &'d Dex) -> Self {
        let mut by_name: Vec<u32> = (0..dex.classes.len() as u32).collect();
        by_name.sort_by(|&a, &b| dex.classes[a as usize].name.cmp(&dex.classes[b as usize].name));
        by_name.dedup_by(|later, earlier| {
            dex.classes[*later as usize].name == dex.classes[*earlier as usize].name
        });
        let class = |name: &str| {
            let pos = by_name
                .binary_search_by(|&c| dex.classes[c as usize].name.as_str().cmp(name))
                .ok()?;
            Some(&dex.classes[by_name[pos] as usize])
        };
        let mut ancestors = Vec::new();
        for (pos, c) in dex.classes.iter().enumerate() {
            let mut cur = c.name.as_str();
            for _ in 0..32 {
                let Some(found) = class(cur) else { break };
                cur = &found.superclass;
                ancestors.push((cur, pos as u32));
            }
        }
        ancestors.sort_unstable();
        ancestors.dedup();
        Hierarchy { dex, ancestors }
    }

    /// Every class declaration whose superclass chain contains `name`.
    fn descendants<'s>(&'s self, name: &'s str) -> impl Iterator<Item = &'d Class> + 's {
        let start = self.ancestors.partition_point(|&(a, _)| a < name);
        self.ancestors[start..]
            .iter()
            .take_while(move |&&(a, _)| a == name)
            .map(|&(_, pos)| &self.dex.classes[pos as usize])
    }
}

/// Finds the class most recently `new-instance`d into `reg` (also follows
/// simple `move` chains), scanning backwards.
fn last_new_instance(insns: &[Insn], reg: u32) -> Option<&str> {
    let mut wanted = reg;
    for insn in insns.iter().rev() {
        match insn {
            Insn::NewInstance { dst, class } if *dst == wanted => return Some(class),
            Insn::Move { dst, src } if *dst == wanted => wanted = *src,
            _ => {}
        }
    }
    None
}

/// A set of method ids of one [`Apg`], one bit per id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MethodSet {
    words: Vec<u64>,
    len: usize,
}

impl MethodSet {
    /// The empty set over `universe` ids.
    pub fn empty(universe: usize) -> Self {
        MethodSet { words: vec![0; universe.div_ceil(64)], len: 0 }
    }

    /// The set of all `universe` ids.
    pub fn full(universe: usize) -> Self {
        let mut words = vec![!0u64; universe.div_ceil(64)];
        let tail = universe % 64;
        if tail > 0 {
            words[universe / 64] = (1u64 << tail) - 1;
        }
        MethodSet { words, len: universe }
    }

    /// Adds `id`; true if it was not present.
    ///
    /// # Panics
    ///
    /// Panics if `id` is outside the universe.
    pub fn insert(&mut self, id: u32) -> bool {
        let (word, bit) = (id as usize / 64, 1u64 << (id % 64));
        let fresh = self.words[word] & bit == 0;
        self.words[word] |= bit;
        self.len += usize::from(fresh);
        fresh
    }

    /// Whether `id` is a member (false outside the universe).
    pub fn contains(&self, id: u32) -> bool {
        self.words.get(id as usize / 64).is_some_and(|w| w & (1u64 << (id % 64)) != 0)
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no id is a member.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Members in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros();
                    rest &= rest - 1;
                    (w * 64) as u32 + bit
                })
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppchecker_apk::{Apk, ComponentKind, Dex, Manifest};

    fn sample_apk() -> Apk {
        let mut manifest = Manifest::new("com.example.app");
        manifest.add_component(ComponentKind::Activity, "com.example.app.Main", true);
        let dex = Dex::builder()
            .class("com.example.app.Main", |c| {
                c.extends("android.app.Activity");
                c.method("onCreate", 1, |m| {
                    m.new_instance(2, "com.example.app.Listener");
                    m.invoke_virtual("android.view.View", "setOnClickListener", &[1, 2], None);
                    m.invoke_virtual("com.example.app.Helper", "load", &[0], None);
                });
            })
            .class("com.example.app.Listener", |c| {
                c.implements("android.view.View$OnClickListener");
                c.method("onClick", 1, |m| {
                    m.invoke_virtual("android.location.Location", "getLatitude", &[0], Some(3));
                });
            })
            .class("com.example.app.Helper", |c| {
                c.method("load", 1, |_| {});
            })
            .build();
        Apk::new(manifest, dex)
    }

    fn id(apg: &Apg, class: &str, method: &str) -> u32 {
        apg.method_id(class, method).unwrap()
    }

    /// The edges leaving `from`'s bodies, by kind.
    fn edges(apg: &Apg, from: u32, kind: EdgeKind) -> Vec<u32> {
        let mut out = Vec::new();
        apg.for_each_edge(|body, k, to| {
            if k == kind && apg.body_ids()[body] == from {
                out.push(to);
            }
        });
        out
    }

    #[test]
    fn ids_follow_declaration_order() {
        let apg = Apg::build(&sample_apk()).unwrap();
        assert_eq!(apg.method_count(), 3);
        assert_eq!(apg.body_ids(), &[0, 1, 2]);
        assert!(!apg.has_duplicate_methods());
        for id in 0..apg.method_count() as u32 {
            let (class, m) = apg.method_def(id);
            assert_eq!(apg.method_id(&class.name, &m.name), Some(id));
        }
        assert_eq!(apg.method_id("com.example.app.Main", "missing"), None);
        assert_eq!(apg.method_id("com.example.app.Missing", "onCreate"), None);
    }

    #[test]
    fn call_edge_to_helper() {
        let apg = Apg::build(&sample_apk()).unwrap();
        let caller = id(&apg, "com.example.app.Main", "onCreate");
        let callee = id(&apg, "com.example.app.Helper", "load");
        assert_eq!(edges(&apg, caller, EdgeKind::Call), vec![callee]);
        assert!(apg.callees(caller).contains(&callee));
    }

    #[test]
    fn implicit_callback_edge_to_listener() {
        let apg = Apg::build(&sample_apk()).unwrap();
        let caller = id(&apg, "com.example.app.Main", "onCreate");
        let cb = id(&apg, "com.example.app.Listener", "onClick");
        assert_eq!(edges(&apg, caller, EdgeKind::ImplicitCallback), vec![cb]);
        assert_eq!(apg.callees(caller).len(), 2);
    }

    #[test]
    fn lifecycle_entry_from_component() {
        let apg = Apg::build(&sample_apk()).unwrap();
        assert_eq!(apg.lifecycle_entries(), &[id(&apg, "com.example.app.Main", "onCreate")]);
    }

    #[test]
    fn icc_edge_to_started_service() {
        let mut manifest = Manifest::new("com.x");
        manifest.add_component(ComponentKind::Activity, "com.x.Main", true);
        manifest.add_component(ComponentKind::Service, "com.x.Sync", false);
        let dex = Dex::builder()
            .class("com.x.Main", |c| {
                c.method("onCreate", 1, |m| {
                    m.new_instance(1, "android.content.Intent");
                    m.const_string(2, "com.x.Sync");
                    m.invoke_virtual("android.content.Intent", "setClass", &[1, 0, 2], None);
                    m.invoke_virtual("android.app.Activity", "startService", &[0, 1], None);
                });
            })
            .class("com.x.Sync", |c| {
                c.extends("android.app.Service");
                c.method("onStartCommand", 3, |_| {});
            })
            .build();
        let apg = Apg::build(&Apk::new(manifest, dex)).unwrap();
        let caller = id(&apg, "com.x.Main", "onCreate");
        let target = id(&apg, "com.x.Sync", "onStartCommand");
        assert_eq!(edges(&apg, caller, EdgeKind::Icc), vec![target]);
        assert_eq!(apg.lifecycle_entries(), &[caller, target]);
    }

    #[test]
    fn virtual_dispatch_resolves_subclass_override() {
        let dex = Dex::builder()
            .class("com.x.Base", |c| {
                c.method("work", 1, |_| {});
            })
            .class("com.x.Derived", |c| {
                c.extends("com.x.Base");
                c.method("work", 1, |_| {});
            })
            .class("com.x.Caller", |c| {
                c.method("go", 1, |m| {
                    m.invoke_virtual("com.x.Base", "work", &[0], None);
                });
            })
            .build();
        let apg = Apg::build(&Apk::new(Manifest::new("com.x"), dex)).unwrap();
        let caller = id(&apg, "com.x.Caller", "go");
        let base = id(&apg, "com.x.Base", "work");
        let derived = id(&apg, "com.x.Derived", "work");
        assert_eq!(apg.callees(caller), &[base, derived]);
    }

    #[test]
    fn duplicate_names_share_one_id_with_the_union_of_their_calls() {
        let dex = Dex::builder()
            .class("com.x.Main", |c| {
                c.method("go", 1, |m| {
                    m.invoke_virtual("com.x.Main", "a", &[0], None);
                });
                c.method("a", 1, |_| {});
                c.method("go", 1, |m| {
                    m.invoke_virtual("com.x.Main", "b", &[0], None);
                });
            })
            .class("com.x.Main", |c| {
                c.method("b", 1, |_| {});
            })
            .build();
        let apg = Apg::build(&Apk::new(Manifest::new("com.x"), dex)).unwrap();
        assert!(apg.has_duplicate_methods());
        assert_eq!(apg.method_count(), 3);
        assert_eq!(apg.body_ids(), &[0, 1, 0, 2]);
        let (_, first) = apg.method_def(0);
        assert!(matches!(&first.instructions[0], Insn::Invoke { method, .. } if method == "a"));
        assert_eq!(apg.callees(0), &[1, 2]);
    }

    #[test]
    fn superclass_chains_resolve_through_first_declarations_and_cycles_end() {
        let dex = Dex::builder()
            .class("com.x.Leaf", |c| {
                c.extends("com.x.Mid");
                c.method("work", 1, |_| {});
            })
            .class("com.x.Mid", |c| {
                c.extends("com.x.Base");
            })
            .class("com.x.Mid", |c| {
                c.extends("com.x.Other");
                c.method("work", 1, |_| {});
            })
            .class("com.x.LoopA", |c| {
                c.extends("com.x.LoopB");
                c.method("work", 1, |_| {});
            })
            .class("com.x.LoopB", |c| {
                c.extends("com.x.LoopA");
            })
            .class("com.x.Caller", |c| {
                c.method("go", 1, |m| {
                    m.invoke_virtual("com.x.Base", "work", &[0], None);
                    m.invoke_virtual("com.x.Other", "work", &[0], None);
                });
            })
            .build();
        let apg = Apg::build(&Apk::new(Manifest::new("com.x"), dex)).unwrap();
        let caller = id(&apg, "com.x.Caller", "go");
        // `Mid` resolves to its first declaration, whose superclass is
        // `Base`; the second declaration's `Other` is never on a chain.
        let expected = [id(&apg, "com.x.Leaf", "work"), id(&apg, "com.x.Mid", "work")];
        assert_eq!(apg.callees(caller), &expected);
    }

    #[test]
    fn libs_are_detected_once_and_keyed_lazily() {
        let dex = Dex::builder()
            .class("com.google.android.gms.ads.AdView", |c| {
                c.method("loadAd", 1, |_| {});
            })
            .class("com.flurry.android.Agent", |c| {
                c.method("log", 1, |_| {});
            })
            .build();
        let apg = Apg::build(&Apk::new(Manifest::new("com.x"), dex.clone())).unwrap();
        let ids: Vec<&str> = apg.libs().iter().map(|l| l.id).collect();
        assert_eq!(ids, libs::detect_libs(&dex).iter().map(|l| l.id).collect::<Vec<_>>());
        assert!(apg.lib_keys.get().is_none(), "keys are hashed on first use only");
        let keyed: Vec<&str> = apg.known_lib_keys().iter().map(|(l, _)| l.id).collect();
        assert_eq!(keyed, ids);
    }

    #[test]
    fn method_set_tracks_members() {
        let mut set = MethodSet::empty(130);
        assert!(set.is_empty());
        assert!(set.insert(129) && set.insert(0) && set.insert(64));
        assert!(!set.insert(64));
        assert_eq!(set.len(), 3);
        assert!(set.contains(64) && !set.contains(63) && !set.contains(4000));
        assert_eq!(set.iter().collect::<Vec<_>>(), vec![0, 64, 129]);
        assert_eq!(MethodSet::full(70).iter().count(), 70);
    }
}
