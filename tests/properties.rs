//! Property-based tests (proptest) over the core data structures and
//! invariants of the pipeline.

use ppchecker_apk::{packer, Apk, ComponentKind, Dex, Insn, InvokeKind, Manifest};
use ppchecker_esa::Interpreter;
use ppchecker_nlp::{depparse, intern, resolve, sentence, token};
use ppchecker_static::apg::{lifecycle_methods, Apg, MethodSet};
use ppchecker_static::{callbacks, reach, taint};
use proptest::prelude::*;
use std::collections::{BTreeSet, HashMap};

// ---------- interning ----------

proptest! {
    /// Interning round-trips: `resolve(intern(s)) == s` and re-interning
    /// the resolved text yields the same symbol.
    #[test]
    fn intern_resolve_roundtrip(s in ".{0,60}") {
        let sym = intern(&s);
        prop_assert_eq!(resolve(sym), s.as_str());
        prop_assert_eq!(intern(resolve(sym)), sym);
    }

    /// Symbol equality coincides with string equality: two strings intern
    /// to the same symbol iff they are byte-identical.
    #[test]
    fn symbol_equality_is_string_equality(a in "[a-z ]{0,20}", b in "[a-z ]{0,20}") {
        prop_assert_eq!(intern(&a) == intern(&b), a == b);
    }
}

// ---------- NLP ----------

proptest! {
    /// The tokenizer never panics and never emits whitespace-bearing or
    /// empty tokens.
    #[test]
    fn tokenizer_is_total_and_clean(s in ".{0,200}") {
        let toks = token::tokenize(&s);
        for t in &toks {
            prop_assert!(!t.text().is_empty());
            prop_assert!(!t.text().chars().any(char::is_whitespace));
            prop_assert!(t.start <= s.len());
        }
    }

    /// Sentence splitting never loses alphanumeric content (modulo the
    /// deliberate non-ASCII stripping and lowercasing).
    #[test]
    fn splitter_preserves_ascii_alnum(s in "[a-zA-Z0-9 .,;:!?]{0,300}") {
        let sents = sentence::split_sentences(&s);
        let kept: String = sents
            .join(" ")
            .chars()
            .filter(|c| c.is_ascii_alphanumeric())
            .collect();
        let original: String = s
            .to_lowercase()
            .chars()
            .filter(|c| c.is_ascii_alphanumeric())
            .collect();
        prop_assert_eq!(kept, original);
    }

    /// After enumeration repair, no sentence but the last ends with a
    /// list-continuation mark.
    #[test]
    fn repair_leaves_no_dangling_separators(s in "[a-z ;,:.]{0,300}") {
        let sents = sentence::split_sentences(&s);
        for sent in sents.iter().rev().skip(1) {
            let t = sent.trim_end();
            prop_assert!(
                !(t.ends_with(';') || t.ends_with(',') || t.ends_with(':')),
                "dangling separator in {sent:?}"
            );
        }
    }

    /// The dependency parser is total and all edges reference real tokens.
    #[test]
    fn parser_edges_are_well_formed(s in "[a-zA-Z ,.';]{0,150}") {
        let p = depparse::parse(&s);
        let n = p.tokens.len();
        if let Some(r) = p.root {
            prop_assert!(r < n);
        }
        for d in &p.deps {
            prop_assert!(d.head < n && d.dep < n);
            prop_assert_ne!(d.head, d.dep);
        }
        for c in &p.chunks {
            prop_assert!(c.start <= c.head && c.head < c.end && c.end <= n);
        }
    }

    /// Verb lemmatization is idempotent.
    #[test]
    fn verb_lemmatization_idempotent(w in "[a-z]{1,12}") {
        let once = ppchecker_nlp::lemma::lemmatize_verb(&w);
        let twice = ppchecker_nlp::lemma::lemmatize_verb(&once);
        prop_assert_eq!(once, twice);
    }
}

// ---------- ESA ----------

proptest! {
    /// Similarity stays in [0, 1] and is symmetric for any pair of texts.
    #[test]
    fn esa_similarity_bounded_and_symmetric(
        a in "[a-z ]{0,60}",
        b in "[a-z ]{0,60}",
    ) {
        let esa = Interpreter::shared();
        let ab = esa.similarity(&a, &b);
        let ba = esa.similarity(&b, &a);
        prop_assert!((0.0..=1.0).contains(&ab));
        prop_assert!((ab - ba).abs() < 1e-12);
    }
}

// ---------- APK / packer ----------

/// Class and method names that generated dexes reuse: a pooled name may
/// be declared by more than one class (duplicate class names) or more
/// than once in a class (duplicate methods), and invokes, listeners,
/// superclasses and intent targets name them.
const CLASS_POOL: &[&str] = &["com.x.Main", "com.x.Base", "com.x.Task", "com.x.Svc"];
const METHOD_POOL: &[&str] = &["onCreate", "run", "onClick", "work", "onStartCommand"];

/// Framework calls with a meaning to the static analysis: sources,
/// sinks, callback registrations, intents, content queries.
const FRAMEWORK_CALLS: &[(&str, &str)] = &[
    ("android.location.Location", "getLatitude"),
    ("android.telephony.TelephonyManager", "getDeviceId"),
    ("android.util.Log", "d"),
    ("java.io.FileOutputStream", "write"),
    ("java.lang.Thread", "start"),
    ("android.view.View", "setOnClickListener"),
    ("android.os.Handler", "post"),
    ("android.content.Intent", "setClass"),
    ("android.content.Intent", "putExtra"),
    ("android.content.Intent", "getStringExtra"),
    ("android.app.Activity", "startService"),
    ("android.content.Context", "sendBroadcast"),
    ("android.content.ContentResolver", "query"),
    ("java.lang.StringBuilder", "append"),
];

fn invoke(class: &str, method: &str, args: Vec<u32>, dst: Option<u32>) -> Insn {
    Insn::Invoke {
        kind: InvokeKind::Virtual,
        class: class.to_string(),
        method: method.to_string(),
        args,
        dst,
    }
}

/// Registers of the pooled instructions: few, so values meet.
fn reg() -> std::ops::Range<u32> {
    0..3
}

/// An instruction with pooled names and registers, where data and
/// control flow between methods happen.
fn arb_pooled_insn() -> impl Strategy<Value = Insn> {
    let pooled_call =
        (0..CLASS_POOL.len(), 0..METHOD_POOL.len(), reg(), 0u32..5).prop_map(|(c, m, arg, dst)| {
            invoke(CLASS_POOL[c], METHOD_POOL[m], vec![arg], (dst < 3).then_some(dst))
        });
    let framework_call =
        (0..FRAMEWORK_CALLS.len(), proptest::collection::vec(reg(), 0..4), 0u32..6).prop_map(
            |(k, args, dst)| {
                invoke(FRAMEWORK_CALLS[k].0, FRAMEWORK_CALLS[k].1, args, (dst < 3).then_some(dst))
            },
        );
    let source = (0usize..2, reg())
        .prop_map(|(k, dst)| invoke(FRAMEWORK_CALLS[k].0, FRAMEWORK_CALLS[k].1, vec![], Some(dst)));
    let sink = (2usize..4, reg())
        .prop_map(|(k, arg)| invoke(FRAMEWORK_CALLS[k].0, FRAMEWORK_CALLS[k].1, vec![arg], None));
    prop_oneof![
        pooled_call,
        framework_call,
        source,
        sink,
        (0..CLASS_POOL.len(), reg())
            .prop_map(|(c, r)| Insn::ConstString { dst: r, value: CLASS_POOL[c].to_string() }),
        (0..CLASS_POOL.len(), reg())
            .prop_map(|(c, r)| Insn::NewInstance { dst: r, class: CLASS_POOL[c].to_string() }),
        (reg(), reg()).prop_map(|(d, s)| Insn::Move { dst: d, src: s }),
        (0..CLASS_POOL.len(), reg()).prop_map(|(c, r)| Insn::FieldPut {
            class: CLASS_POOL[c].to_string(),
            field: "f".to_string(),
            src: r
        }),
        (0..CLASS_POOL.len(), reg()).prop_map(|(c, r)| Insn::FieldGet {
            class: CLASS_POOL[c].to_string(),
            field: "f".to_string(),
            dst: r
        }),
        reg().prop_map(|r| Insn::Return { src: Some(r) }),
    ]
}

/// One instruction in three random, the rest pooled.
fn arb_insn() -> impl Strategy<Value = Insn> {
    prop_oneof![arb_random_insn(), arb_pooled_insn(), arb_pooled_insn()]
}

fn arb_random_insn() -> impl Strategy<Value = Insn> {
    prop_oneof![
        ("[ -~]{0,40}", 0u32..16).prop_map(|(v, r)| Insn::ConstString { dst: r, value: v }),
        (0u32..16, 0u32..16).prop_map(|(d, s)| Insn::Move { dst: d, src: s }),
        ("[a-zA-Z.$]{1,30}", "[a-zA-Z]{1,15}", proptest::collection::vec(0u32..16, 0..4))
            .prop_map(|(c, m, args)| invoke(&c, &m, args, None)),
        ("[a-zA-Z.]{1,20}", "[a-zA-Z]{1,12}", 0u32..16).prop_map(|(c, f, r)| Insn::FieldPut {
            class: c,
            field: f,
            src: r
        }),
        (0u32..16).prop_map(|r| Insn::Return { src: Some(r) }),
        Just(Insn::Nop),
    ]
}

/// A dex of zero to five classes of zero to four methods each, so empty
/// dexes and classes with no methods occur. Most class and method names
/// come from the pools, so duplicate class names and duplicate method
/// declarations are common; the rest are random and kept distinct.
fn arb_dex() -> impl Strategy<Value = Dex> {
    proptest::collection::vec(
        (
            0usize..6,
            "[a-z][a-z.]{0,20}",
            0usize..6,
            proptest::collection::vec(
                (0usize..7, "[a-z][a-zA-Z]{0,10}", proptest::collection::vec(arb_insn(), 0..12)),
                0..5,
            ),
        ),
        0..6,
    )
    .prop_map(|classes| {
        let mut b = Dex::builder();
        for (i, (pick, name, parent, methods)) in classes.into_iter().enumerate() {
            let name = CLASS_POOL.get(pick).map_or_else(|| format!("{name}{i}"), |n| n.to_string());
            b = b.class(&name, |c| {
                match CLASS_POOL.get(parent) {
                    Some(parent) => c.extends(parent),
                    None if parent == CLASS_POOL.len() => c.extends("android.app.Activity"),
                    None => c,
                };
                for (j, (pick, mname, insns)) in methods.into_iter().enumerate() {
                    let mname = METHOD_POOL
                        .get(pick)
                        .map_or_else(|| format!("{mname}{j}"), |n| n.to_string());
                    c.method(&mname, 1, |mb| {
                        for insn in insns {
                            mb.push(insn);
                        }
                    });
                }
            });
        }
        b.build()
    })
}

proptest! {
    /// Serialization round-trips arbitrary dex files.
    #[test]
    fn dex_serialization_round_trips(dex in arb_dex()) {
        let text = packer::serialize(&dex);
        let back = packer::deserialize(&text).expect("own output must parse");
        prop_assert_eq!(dex, back);
    }

    /// Packing + unpacking is the identity for any key.
    #[test]
    fn packer_round_trips(dex in arb_dex(), key: u8) {
        let blob = packer::pack(&dex, key);
        let back = packer::unpack(&blob).expect("own blob must unpack");
        prop_assert_eq!(dex, back);
    }

    /// Unpacking never panics on arbitrary garbage.
    #[test]
    fn unpack_is_total(blob in proptest::collection::vec(any::<u8>(), 0..200)) {
        let _ = packer::unpack(&blob);
    }
}

// ---------- static analysis ----------

/// The manifest every generated dex is analyzed under: three pooled
/// components, so lifecycle entries resolve.
fn pool_manifest() -> Manifest {
    let mut m = Manifest::new("com.x");
    m.add_component(ComponentKind::Activity, "com.x.Main", true);
    m.add_component(ComponentKind::Service, "com.x.Svc", false);
    m.add_component(ComponentKind::Receiver, "com.x.Task", false);
    m
}

/// The reachability oracle: a breadth-first walk over `(class, method)`
/// names with the property-graph APG's semantics. Every body's call,
/// callback and intent edges leave its name; edges and entries resolve
/// by name; a call also reaches the override in every other class whose
/// superclass chain — walked through `Dex::class`, at most 32 steps —
/// reaches the named class. Entries are the components' lifecycle
/// methods and every UI callback.
fn oracle_reachable(dex: &Dex, manifest: &Manifest) -> BTreeSet<(String, String)> {
    type Name<'a> = (&'a str, &'a str);
    let declared: BTreeSet<Name> =
        dex.iter_methods().map(|(c, m)| (c.name.as_str(), m.name.as_str())).collect();
    let named = |c: &str, m: &str| declared.iter().find(|&&n| n == (c, m)).copied();
    let chain_reaches = |class: &str, ancestor: &str| {
        let mut cur = class;
        for _ in 0..32 {
            let Some(c) = dex.class(cur) else { return false };
            if c.superclass == ancestor {
                return true;
            }
            cur = &c.superclass;
        }
        false
    };
    fn listener(insns: &[Insn], reg: u32) -> Option<&str> {
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
    let mut edges: HashMap<Name, Vec<Name>> = HashMap::new();
    for class in &dex.classes {
        for m in &class.methods {
            let out = edges.entry((class.name.as_str(), m.name.as_str())).or_default();
            let mut strings: HashMap<u32, &str> = HashMap::new();
            let mut intents: HashMap<u32, &str> = HashMap::new();
            for (idx, insn) in m.instructions.iter().enumerate() {
                if let Insn::ConstString { dst, value } = insn {
                    strings.insert(*dst, value);
                }
                let Insn::Invoke { class: cc, method: mm, args, .. } = insn else { continue };
                out.extend(named(cc, mm));
                for sub in &dex.classes {
                    if sub.name != *cc && chain_reaches(&sub.name, cc) && sub.method(mm).is_some() {
                        out.extend(named(&sub.name, mm));
                    }
                }
                if let Some(cb) = callbacks::callback_for(cc, mm) {
                    for &arg in args {
                        out.extend(
                            listener(&m.instructions[..idx], arg).and_then(|l| named(l, cb)),
                        );
                    }
                    out.extend(named(&class.name, cb));
                }
                if cc == "android.content.Intent"
                    && ["setClass", "setClassName", "setComponent"].contains(&mm.as_str())
                {
                    let target = args.iter().skip(1).find_map(|r| strings.get(r));
                    if let (Some(&intent), Some(&target)) = (args.first(), target) {
                        intents.insert(intent, target);
                    }
                    continue;
                }
                let launched: &[&str] = match mm.as_str() {
                    "startActivity" => &["onCreate"],
                    "startService" => &["onCreate", "onStartCommand"],
                    "sendBroadcast" => &["onReceive"],
                    _ => &[],
                };
                for target in args.iter().skip(1).filter_map(|r| intents.get(r)) {
                    for entry in launched {
                        out.extend(named(target, entry));
                    }
                }
            }
        }
    }
    let mut queue: Vec<Name> = Vec::new();
    for comp in &manifest.components {
        for entry in lifecycle_methods(comp.kind) {
            queue.extend(named(&comp.class_name, entry));
        }
    }
    queue.extend(declared.iter().filter(|(_, m)| callbacks::UI_CALLBACKS.contains(m)));
    let mut reached: BTreeSet<Name> = queue.iter().copied().collect();
    while let Some(name) = queue.pop() {
        for &next in edges.get(&name).into_iter().flatten() {
            if reached.insert(next) {
                queue.push(next);
            }
        }
    }
    reached.into_iter().map(|(c, m)| (c.to_string(), m.to_string())).collect()
}

proptest! {
    /// The APG builds for any generated dex and reachability stays within
    /// the method set.
    #[test]
    fn apg_builds_for_arbitrary_dex(dex in arb_dex()) {
        let methods = dex.method_count();
        let apk = Apk::new(pool_manifest(), dex);
        let report = ppchecker_static::analyze(&apk).expect("plain dex");
        prop_assert!(report.reachable_method_count <= methods);
    }

    /// Reachability over the dense method graph equals the name-resolved
    /// oracle, duplicate class and method names included.
    #[test]
    fn reachable_methods_match_the_name_resolved_oracle(dex in arb_dex()) {
        let apk = Apk::new(pool_manifest(), dex);
        let apg = Apg::build(&apk).expect("plain dex");
        let reached = reach::reachable_methods(&apg);
        let names: BTreeSet<(String, String)> = reached
            .iter()
            .map(|id| {
                let (c, m) = apg.method_def(id);
                (c.name.clone(), m.name.clone())
            })
            .collect();
        prop_assert_eq!(names.len(), reached.len());
        prop_assert_eq!(names, oracle_reachable(&apg.dex, &apk.manifest));
    }

    /// The taint kernel and the reference engine report the same leaks on
    /// generated apps, with or without reachability; apps the kernel
    /// declines (duplicate methods) run on the reference engine.
    #[test]
    fn taint_kernel_matches_reference_on_generated_apps(dex in arb_dex()) {
        let apg = Apg::build(&Apk::new(pool_manifest(), dex)).expect("plain dex");
        for methods in [reach::reachable_methods(&apg), MethodSet::full(apg.method_count())] {
            prop_assert_eq!(
                taint::analyze(&apg, &methods),
                taint::analyze_reference(&apg, &methods)
            );
        }
    }
}

// ---------- policy pipeline ----------

proptest! {
    /// The policy analyzer is total over arbitrary HTML-ish input.
    #[test]
    fn policy_analyzer_is_total(s in "[a-zA-Z <>/&;.,]{0,300}") {
        let analyzer = ppchecker_policy::PolicyAnalyzer::new();
        let analysis = analyzer.analyze_html(&s);
        prop_assert!(analysis.sentences.len() <= analysis.total_sentences);
    }

    /// Every extracted resource is non-empty and every sentence has at
    /// least one resource (pipeline filter invariant).
    #[test]
    fn useful_sentences_always_carry_resources(s in "[a-z .,]{0,200}") {
        let analyzer = ppchecker_policy::PolicyAnalyzer::new();
        for sent in &analyzer.analyze_text(&s).sentences {
            prop_assert!(!sent.resource_symbols().is_empty());
            for r in sent.resources() {
                prop_assert!(!r.is_empty());
            }
        }
    }
}

// ---------- HTML extraction ----------

proptest! {
    /// The HTML extractor is total and its output never contains tag
    /// delimiters from well-formed markup.
    #[test]
    fn html_extractor_is_total(s in "[a-zA-Z <>/&;=\"']{0,300}") {
        let _ = ppchecker_policy::html::extract_text(&s);
    }

    /// Text wrapped in simple tags always survives extraction.
    #[test]
    fn wrapped_text_survives(words in "[a-z]{1,10}( [a-z]{1,10}){0,5}") {
        let html = format!("<html><body><p>{words}</p></body></html>");
        let text = ppchecker_policy::html::extract_text(&html);
        prop_assert!(text.contains(&words));
    }
}

// ---------- manifest text format ----------

proptest! {
    /// Manifest parsing is total over arbitrary line soup.
    #[test]
    fn manifest_parse_is_total(s in "([a-z ]{0,30}\n){0,10}") {
        let _ = ppchecker_apk::Manifest::from_text(&s);
    }

    /// Any manifest built from generated parts round-trips through the
    /// text format.
    #[test]
    fn manifest_text_round_trips(
        package in "[a-z]{2,8}(\\.[a-z]{2,8}){1,3}",
        perms in proptest::collection::vec(0usize..8, 0..5),
        classes in proptest::collection::vec("[A-Z][a-zA-Z]{1,10}", 0..4),
    ) {
        use ppchecker_apk::{ComponentKind, Manifest, Permission};
        const PERMS: &[Permission] = &[
            Permission::AccessFineLocation,
            Permission::Camera,
            Permission::ReadContacts,
            Permission::GetAccounts,
            Permission::ReadCalendar,
            Permission::RecordAudio,
            Permission::ReadSms,
            Permission::Internet,
        ];
        let mut m = Manifest::new(&package);
        for &p in &perms {
            m.add_permission(PERMS[p].clone());
        }
        for (i, c) in classes.iter().enumerate() {
            m.add_component(ComponentKind::Activity, &format!("{package}.{c}"), i == 0);
        }
        let again = Manifest::from_text(&m.to_text()).expect("own output parses");
        prop_assert_eq!(m, again);
    }
}

// ---------- MinHash (boilerplate detection) ----------

/// Interns a generated word list into the token stream MinHash consumes.
fn intern_words(words: &[String]) -> Vec<ppchecker_nlp::Symbol> {
    words.iter().map(|w| intern(w)).collect()
}

proptest! {
    /// The 64-slot MinHash estimate tracks the exact shingle Jaccard:
    /// bounded, symmetric, exact on identical streams, and within a
    /// statistical band of the true value on arbitrary pairs.
    #[test]
    fn minhash_estimate_tracks_exact_jaccard(
        a in proptest::collection::vec("[a-e]{1,3}", 4..40),
        b in proptest::collection::vec("[a-e]{1,3}", 4..40),
    ) {
        use ppchecker_core::minhash::{exact_jaccard, signature, similarity};
        let (ta, tb) = (intern_words(&a), intern_words(&b));
        let (sa, sb) = (signature(&ta), signature(&tb));
        let est = similarity(&sa, &sb);
        let exact = exact_jaccard(&ta, &tb);
        prop_assert!((0.0..=1.0).contains(&est));
        prop_assert_eq!(similarity(&sb, &sa), est);
        // 64 independent min-hash slots: the estimator is a binomial
        // mean with σ ≤ 1/16, so 0.35 is a > 5σ band — flaky only if
        // the estimator is actually broken.
        prop_assert!(
            (est - exact).abs() <= 0.35,
            "estimate {} too far from exact {}", est, exact,
        );
    }

    /// A stream is always a perfect duplicate of itself, and two streams
    /// over disjoint alphabets share nothing.
    #[test]
    fn minhash_identity_and_disjointness(
        a in proptest::collection::vec("[a-c]{1,3}", 4..30),
        b in proptest::collection::vec("[x-z]{1,3}", 4..30),
    ) {
        use ppchecker_core::minhash::{exact_jaccard, signature, similarity};
        let (ta, tb) = (intern_words(&a), intern_words(&b));
        prop_assert_eq!(similarity(&signature(&ta), &signature(&ta)), 1.0);
        prop_assert_eq!(exact_jaccard(&ta, &ta), 1.0);
        prop_assert_eq!(exact_jaccard(&ta, &tb), 0.0);
        // Disjoint shingle sets can only collide through a 64-bit hash
        // collision; the estimate must sit at (or indistinguishably
        // near) zero.
        prop_assert!(similarity(&signature(&ta), &signature(&tb)) < 0.1);
    }
}
