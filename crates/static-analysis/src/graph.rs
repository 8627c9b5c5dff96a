//! The Android property graph as an export.
//!
//! The paper stores the Android property graph in a graph database and
//! answers analyses as graph queries. The analyses here read only its
//! method layer, which [`crate::apg::Apg`] compiles straight from the
//! dex. This module keeps the whole graph — typed nodes with string
//! attributes and typed edges — for inspection: [`Graph::from_apk`]
//! builds it on demand and [`to_dot`] renders it for Graphviz.

use crate::apg::{lifecycle_methods, Apg};
use ppchecker_apk::{Apk, Insn, ParseDexError};
use std::collections::HashMap;

/// Identifier of a node in the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// Node types of the Android property graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// A class definition (AST level).
    Class,
    /// A method definition.
    Method,
    /// One instruction (statement).
    Instruction,
    /// A manifest component.
    Component,
}

/// Edge types of the Android property graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeKind {
    /// Structural containment (class → method → instruction): the AST part.
    Contains,
    /// Intra-procedural control flow (instruction → instruction): ICFG.
    CfgNext,
    /// Call edge (call-site instruction → callee method): MCG.
    Call,
    /// Implicit callback edge (registration site → callback method),
    /// recovered EdgeMiner-style.
    ImplicitCallback,
    /// Inter-component (intent) edge, recovered IccTA-style.
    Icc,
    /// Data dependency (instruction → instruction): the SDG part.
    DataDep,
    /// Component → its lifecycle entry method.
    Lifecycle,
}

/// A stored node.
#[derive(Debug, Clone)]
pub struct Node {
    /// Node type.
    pub kind: NodeKind,
    /// Primary label (class name, method name, rendered instruction, ...).
    pub label: String,
    /// Extra attributes.
    pub attrs: HashMap<String, String>,
}

/// A property graph with typed adjacency indexes.
#[derive(Debug, Default)]
pub struct Graph {
    nodes: Vec<Node>,
    out: HashMap<(NodeId, EdgeKind), Vec<NodeId>>,
    edge_count: usize,
}

/// Node counts by kind and the edge total of a [`Graph`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GraphStats {
    /// Class nodes.
    pub classes: usize,
    /// Method nodes (one per declared body).
    pub methods: usize,
    /// Instruction nodes.
    pub instructions: usize,
    /// Component nodes.
    pub components: usize,
    /// Total edges of all kinds.
    pub edges: usize,
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Graph::default()
    }

    /// Adds a node and returns its id.
    pub fn add_node(&mut self, kind: NodeKind, label: impl Into<String>) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(Node { kind, label: label.into(), attrs: HashMap::new() });
        id
    }

    /// Sets an attribute on a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    pub fn set_attr(&mut self, id: NodeId, key: &str, value: impl Into<String>) {
        self.nodes[id.0].attrs.insert(key.to_string(), value.into());
    }

    /// Reads an attribute.
    pub fn attr(&self, id: NodeId, key: &str) -> Option<&str> {
        self.nodes[id.0].attrs.get(key).map(|s| s.as_str())
    }

    /// Adds a typed edge.
    pub fn add_edge(&mut self, from: NodeId, kind: EdgeKind, to: NodeId) {
        self.out.entry((from, kind)).or_default().push(to);
        self.edge_count += 1;
    }

    /// The node payload.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0]
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Outgoing neighbors via `kind`.
    pub fn successors(&self, id: NodeId, kind: EdgeKind) -> &[NodeId] {
        self.out.get(&(id, kind)).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// All node ids of a given kind.
    pub fn nodes_of_kind(&self, kind: NodeKind) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes.iter().enumerate().filter(move |(_, n)| n.kind == kind).map(|(i, _)| NodeId(i))
    }

    /// Node counts by kind and the edge total.
    pub fn stats(&self) -> GraphStats {
        GraphStats {
            classes: self.nodes_of_kind(NodeKind::Class).count(),
            methods: self.nodes_of_kind(NodeKind::Method).count(),
            instructions: self.nodes_of_kind(NodeKind::Instruction).count(),
            components: self.nodes_of_kind(NodeKind::Component).count(),
            edges: self.edge_count,
        }
    }

    /// Builds the whole property graph of an APK: class, method (one per
    /// declared body), instruction and component nodes; containment and
    /// intra-method control-flow edges; and the call, implicit-callback,
    /// intent and lifecycle edges of its [`Apg`], which point at the
    /// first declared body of their target.
    ///
    /// # Errors
    ///
    /// Returns [`ParseDexError`] if a packed dex cannot be recovered.
    pub fn from_apk(apk: &Apk) -> Result<Graph, ParseDexError> {
        let apg = Apg::build(apk)?;
        let mut graph = Graph::new();
        let mut body_nodes = Vec::with_capacity(apg.body_ids().len());
        for class in &apg.dex.classes {
            let cid = graph.add_node(NodeKind::Class, class.name.clone());
            graph.set_attr(cid, "superclass", class.superclass.clone());
            for m in &class.methods {
                let mid = graph.add_node(NodeKind::Method, m.name.clone());
                graph.set_attr(mid, "class", class.name.clone());
                graph.add_edge(cid, EdgeKind::Contains, mid);
                body_nodes.push(mid);
                let insns: Vec<NodeId> = m
                    .instructions
                    .iter()
                    .enumerate()
                    .map(|(idx, insn)| {
                        let iid = graph.add_node(NodeKind::Instruction, insn.to_string());
                        graph.set_attr(iid, "index", idx.to_string());
                        graph.add_edge(mid, EdgeKind::Contains, iid);
                        iid
                    })
                    .collect();
                for pair in insns.windows(2) {
                    graph.add_edge(pair[0], EdgeKind::CfgNext, pair[1]);
                }
                for (idx, insn) in m.instructions.iter().enumerate() {
                    if let Insn::Goto { target } | Insn::IfNonZero { target, .. } = insn {
                        if let Some(&to) = insns.get(*target) {
                            graph.add_edge(insns[idx], EdgeKind::CfgNext, to);
                        }
                    }
                }
            }
        }
        // A method id's node is its first body's.
        let mut node_of: Vec<Option<NodeId>> = vec![None; apg.method_count()];
        for (&id, &node) in apg.body_ids().iter().zip(&body_nodes) {
            node_of[id as usize].get_or_insert(node);
        }
        let node_of = |id: u32| node_of[id as usize].expect("every id has a body");
        apg.for_each_edge(|body, kind, to| graph.add_edge(body_nodes[body], kind, node_of(to)));
        for comp in &apk.manifest.components {
            let nid = graph.add_node(NodeKind::Component, comp.class_name.clone());
            graph.set_attr(nid, "kind", format!("{:?}", comp.kind));
            if comp.main {
                graph.set_attr(nid, "main", "true");
            }
            for entry in lifecycle_methods(comp.kind) {
                if let Some(id) = apg.method_id(&comp.class_name, entry) {
                    graph.add_edge(nid, EdgeKind::Lifecycle, node_of(id));
                }
            }
        }
        Ok(graph)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppchecker_apk::{ComponentKind, Dex, Manifest};

    #[test]
    fn add_and_query_nodes() {
        let mut g = Graph::new();
        let a = g.add_node(NodeKind::Class, "com.x.A");
        let m = g.add_node(NodeKind::Method, "onCreate");
        g.add_edge(a, EdgeKind::Contains, m);
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.successors(a, EdgeKind::Contains), &[m]);
        assert!(g.successors(a, EdgeKind::Call).is_empty());
    }

    #[test]
    fn attributes() {
        let mut g = Graph::new();
        let n = g.add_node(NodeKind::Instruction, "invoke");
        g.set_attr(n, "class", "android.util.Log");
        assert_eq!(g.attr(n, "class"), Some("android.util.Log"));
        assert_eq!(g.attr(n, "missing"), None);
    }

    #[test]
    fn multiple_edge_kinds_are_indexed_separately() {
        let mut g = Graph::new();
        let a = g.add_node(NodeKind::Instruction, "i1");
        let b = g.add_node(NodeKind::Instruction, "i2");
        g.add_edge(a, EdgeKind::CfgNext, b);
        g.add_edge(a, EdgeKind::DataDep, b);
        assert_eq!(g.successors(a, EdgeKind::CfgNext), &[b]);
        assert_eq!(g.successors(a, EdgeKind::DataDep), &[b]);
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn exported_graph_counts_every_kind() {
        let mut manifest = Manifest::new("com.x");
        manifest.add_component(ComponentKind::Activity, "com.x.Main", true);
        let dex = Dex::builder()
            .class("com.x.Main", |c| {
                c.method("onCreate", 1, |m| {
                    m.const_string(1, "hello");
                });
            })
            .build();
        let g = Graph::from_apk(&Apk::new(manifest, dex)).unwrap();
        let s = g.stats();
        assert_eq!((s.classes, s.methods, s.components), (1, 1, 1));
        assert_eq!(s.instructions, 2); // const-string + implicit return
        assert_eq!(s.edges, 5); // contains ×3 + cfg + lifecycle
    }

    #[test]
    fn exported_graph_carries_the_method_layer() {
        let mut manifest = Manifest::new("com.x");
        manifest.add_component(ComponentKind::Activity, "com.x.Main", true);
        let dex = Dex::builder()
            .class("com.x.Main", |c| {
                c.method("onCreate", 1, |m| {
                    m.new_instance(2, "com.x.Listener");
                    m.invoke_virtual("android.view.View", "setOnClickListener", &[1, 2], None);
                    m.invoke_virtual("com.x.Main", "load", &[0], None);
                });
                c.method("load", 1, |_| {});
            })
            .class("com.x.Listener", |c| {
                c.method("onClick", 1, |_| {});
            })
            .build();
        let g = Graph::from_apk(&Apk::new(manifest, dex)).unwrap();
        let method = |label: &str| {
            g.nodes_of_kind(NodeKind::Method).find(|&n| g.node(n).label == label).unwrap()
        };
        let component = g.nodes_of_kind(NodeKind::Component).next().unwrap();
        assert_eq!(g.attr(component, "main"), Some("true"));
        let on_create = method("onCreate");
        assert_eq!(g.successors(component, EdgeKind::Lifecycle), &[on_create]);
        assert_eq!(g.successors(on_create, EdgeKind::Call), &[method("load")]);
        assert_eq!(g.successors(on_create, EdgeKind::ImplicitCallback), &[method("onClick")]);
        assert!(to_dot(&g).contains("[color=purple]"));
    }
}

/// Renders the graph in Graphviz dot format for inspection.
///
/// Node labels carry the kind; edges are colored per [`EdgeKind`].
pub fn to_dot(graph: &Graph) -> String {
    let mut out = String::from("digraph apg {\n  rankdir=LR;\n  node [fontsize=9];\n");
    for id in 0..graph.node_count() {
        let node = graph.node(NodeId(id));
        let shape = match node.kind {
            NodeKind::Class => "box",
            NodeKind::Method => "ellipse",
            NodeKind::Instruction => "plaintext",
            NodeKind::Component => "hexagon",
        };
        let label = node.label.replace('"', "'");
        out.push_str(&format!("  n{id} [shape={shape} label=\"{label}\"];\n"));
    }
    const KINDS: &[(EdgeKind, &str)] = &[
        (EdgeKind::Contains, "gray"),
        (EdgeKind::CfgNext, "black"),
        (EdgeKind::Call, "blue"),
        (EdgeKind::ImplicitCallback, "purple"),
        (EdgeKind::Icc, "orange"),
        (EdgeKind::DataDep, "green"),
        (EdgeKind::Lifecycle, "red"),
    ];
    for id in 0..graph.node_count() {
        for &(kind, color) in KINDS {
            for to in graph.successors(NodeId(id), kind) {
                out.push_str(&format!("  n{id} -> n{} [color={color}];\n", to.0));
            }
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod dot_tests {
    use super::*;

    #[test]
    fn dot_export_contains_nodes_and_edges() {
        let mut g = Graph::new();
        let a = g.add_node(NodeKind::Class, "com.x.A");
        let m = g.add_node(NodeKind::Method, "onCreate");
        g.add_edge(a, EdgeKind::Contains, m);
        let dot = to_dot(&g);
        assert!(dot.starts_with("digraph apg"));
        assert!(dot.contains("com.x.A"));
        assert!(dot.contains("n0 -> n1 [color=gray]"));
    }

    #[test]
    fn dot_escapes_quotes() {
        let mut g = Graph::new();
        g.add_node(NodeKind::Instruction, "const-string v1, \"x\"");
        assert!(!to_dot(&g).contains("\"x\""));
    }
}
