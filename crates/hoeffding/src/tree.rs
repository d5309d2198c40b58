//! The Hoeffding tree (VFDT) classifier.

use crate::attribute::{AttributeSpec, Instance, Schema, Value};
use crate::bound::hoeffding_bound;
use crate::stats::{partition_entropy, ClassCounts, GaussianEstimator};
use geostream::{Persist, PersistError, PersistReader, PersistWriter};

/// Tuning knobs of the tree. The defaults mirror the classic VFDT / MOA
/// settings and the paper's WEKA defaults; leaves predict their majority
/// class, the paper's WEKA configuration.
#[derive(Debug, Clone)]
pub struct HoeffdingTreeConfig {
    /// Re-evaluate candidate splits at a leaf only every `grace_period`
    /// observations (split evaluation is the expensive step).
    pub grace_period: u64,
    /// `δ` of the Hoeffding bound: probability of choosing a wrong split.
    pub split_confidence: f64,
    /// If the bound `ε` drops below this value, the top two splits are
    /// considered tied and the best one is taken.
    pub tie_threshold: f64,
    /// Candidate thresholds evaluated per numeric attribute.
    pub num_split_points: usize,
    /// Hard depth cap (safety valve; `usize::MAX` disables).
    pub max_depth: usize,
}

impl Default for HoeffdingTreeConfig {
    fn default() -> Self {
        HoeffdingTreeConfig {
            grace_period: 200,
            split_confidence: 1e-7,
            tie_threshold: 0.05,
            num_split_points: 10,
            max_depth: usize::MAX,
        }
    }
}

/// Aggregate shape statistics of a tree, for monitoring and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeStats {
    pub nodes: usize,
    pub leaves: usize,
    pub splits: usize,
    pub depth: usize,
    pub instances_seen: u64,
}

type NodeId = usize;

/// Per-attribute sufficient statistics at a leaf.
#[derive(Debug, Clone)]
enum Observer {
    /// `value → class counts` table.
    Categorical(Vec<ClassCounts>),
    /// One Gaussian per class.
    Numeric(Vec<GaussianEstimator>),
}

impl Observer {
    fn for_attr(spec: &AttributeSpec, num_classes: u32) -> Observer {
        match spec {
            AttributeSpec::Categorical { arity, .. } => {
                Observer::Categorical((0..*arity).map(|_| ClassCounts::new(num_classes)).collect())
            }
            AttributeSpec::Numeric { .. } => {
                Observer::Numeric((0..num_classes).map(|_| GaussianEstimator::new()).collect())
            }
        }
    }

    fn observe(&mut self, value: Value, class: u32, weight: f64) {
        match (self, value) {
            (Observer::Categorical(table), Value::Cat(v)) => {
                table[v as usize].add(class, weight);
            }
            (Observer::Numeric(gaussians), Value::Num(x)) => {
                gaussians[class as usize].add(x, weight);
            }
            _ => unreachable!("observer/value kind mismatch is caught by schema validation"),
        }
    }
}

#[derive(Debug, Clone)]
struct LeafNode {
    counts: ClassCounts,
    observers: Vec<Observer>,
    weight_at_last_eval: f64,
    depth: usize,
}

impl LeafNode {
    fn new(schema: &Schema, depth: usize, seed_counts: Option<ClassCounts>) -> Self {
        let counts = seed_counts.unwrap_or_else(|| ClassCounts::new(schema.num_classes()));
        LeafNode {
            weight_at_last_eval: counts.total(),
            counts,
            observers: schema
                .attributes()
                .iter()
                .map(|a| Observer::for_attr(a, schema.num_classes()))
                .collect(),
            depth,
        }
    }
}

#[derive(Debug, Clone)]
enum Node {
    Leaf(LeafNode),
    /// Multiway split on a categorical attribute: `children[v]` handles
    /// value `v`.
    CatSplit {
        attr: usize,
        children: Vec<NodeId>,
    },
    /// Binary split on a numeric attribute: left takes `value <= threshold`.
    NumSplit {
        attr: usize,
        threshold: f64,
        left: NodeId,
        right: NodeId,
    },
}

/// A candidate split found at evaluation time.
struct Candidate {
    gain: f64,
    attr: usize,
    /// `None` for categorical multiway, `Some(threshold)` for numeric.
    threshold: Option<f64>,
    /// Class-count seeds for the children, in child order.
    child_counts: Vec<ClassCounts>,
}

/// An incrementally trained Hoeffding tree classifier.
///
/// ```
/// use hoeffding::{AttributeSpec, HoeffdingTree, HoeffdingTreeConfig, Schema, Value};
///
/// let schema = Schema::new(
///     vec![AttributeSpec::categorical("type", 3), AttributeSpec::numeric("latency")],
///     2,
/// );
/// let mut tree = HoeffdingTree::new(schema, HoeffdingTreeConfig::default());
/// // class 1 whenever type == 2:
/// for i in 0..3_000u32 {
///     let ty = i % 3;
///     tree.train(&vec![Value::Cat(ty), Value::Num(f64::from(i % 7))], u32::from(ty == 2));
/// }
/// assert_eq!(tree.predict(&vec![Value::Cat(2), Value::Num(3.0)]), 1);
/// assert_eq!(tree.predict(&vec![Value::Cat(0), Value::Num(3.0)]), 0);
/// ```
#[derive(Debug, Clone)]
pub struct HoeffdingTree {
    schema: Schema,
    config: HoeffdingTreeConfig,
    /// Node arena; the root is node 0.
    nodes: Vec<Node>,
    instances_seen: u64,
    splits_performed: usize,
}

impl HoeffdingTree {
    /// Creates an empty tree (a single leaf) over `schema`.
    pub fn new(schema: Schema, config: HoeffdingTreeConfig) -> Self {
        assert!(config.grace_period > 0, "grace period must be positive");
        assert!(
            config.num_split_points > 0,
            "need at least one numeric split point"
        );
        let root_leaf = LeafNode::new(&schema, 0, None);
        HoeffdingTree {
            schema,
            config,
            nodes: vec![Node::Leaf(root_leaf)],
            instances_seen: 0,
            splits_performed: 0,
        }
    }

    /// The schema the tree was built over.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Trains on one `(instance, class)` record. `O(depth)` plus an
    /// amortized split evaluation every `grace_period` records per leaf.
    ///
    /// # Panics
    /// Panics if the instance does not conform to the schema or `class` is
    /// out of range.
    pub fn train(&mut self, instance: &Instance, class: u32) {
        self.schema
            .validate(instance)
            // LINT-ALLOW(no-panic): an instance not matching the fixed schema is a programmer error; documented panic
            .unwrap_or_else(|e| panic!("invalid instance: {e}"));
        assert!(
            class < self.schema.num_classes(),
            "class {class} out of range 0..{}",
            self.schema.num_classes()
        );
        self.instances_seen += 1;
        let leaf_id = self.sort_to_leaf(instance);
        let grace = self.config.grace_period as f64;
        let (should_eval, depth) = {
            let leaf = self.leaf_mut(leaf_id);
            leaf.counts.add(class, 1.0);
            for (obs, &v) in leaf.observers.iter_mut().zip(instance.iter()) {
                obs.observe(v, class, 1.0);
            }
            let seen_since = leaf.counts.total() - leaf.weight_at_last_eval;
            (
                seen_since >= grace && leaf.counts.distinct() > 1,
                leaf.depth,
            )
        };
        if should_eval && depth < self.config.max_depth {
            self.try_split(leaf_id);
        }
    }

    /// Predicts the class of `instance`.
    pub fn predict(&self, instance: &Instance) -> u32 {
        self.predict_weights(instance)
            .into_iter()
            .enumerate()
            // LINT-ALLOW(no-panic): information gains over finite counts are finite, so partial_cmp succeeds
            .max_by(|(ai, a), (bi, b)| a.partial_cmp(b).expect("finite").then(bi.cmp(ai)))
            .map(|(i, _)| i as u32)
            .unwrap_or(0)
    }

    /// Per-class scores for `instance` (not normalized): the raw class
    /// counts of the leaf it sorts to.
    pub fn predict_weights(&self, instance: &Instance) -> Vec<f64> {
        self.schema
            .validate(instance)
            // LINT-ALLOW(no-panic): an instance not matching the fixed schema is a programmer error; documented panic
            .unwrap_or_else(|e| panic!("invalid instance: {e}"));
        let leaf_id = self.sort_to_leaf_ref(instance);
        let Node::Leaf(leaf) = &self.nodes[leaf_id] else {
            unreachable!("sort_to_leaf_ref returns a leaf")
        };
        leaf.counts.iter().collect()
    }

    /// Shape statistics of the tree.
    pub fn stats(&self) -> TreeStats {
        let mut leaves = 0;
        let mut depth = 0;
        for node in &self.nodes {
            if let Node::Leaf(l) = node {
                leaves += 1;
                depth = depth.max(l.depth);
            }
        }
        TreeStats {
            nodes: self.nodes.len(),
            leaves,
            splits: self.splits_performed,
            depth,
            instances_seen: self.instances_seen,
        }
    }

    /// Discards all learned structure, keeping schema and configuration.
    /// LATEST uses this for the manual retraining trigger (§V-D).
    pub fn reset(&mut self) {
        let root_leaf = LeafNode::new(&self.schema, 0, None);
        self.nodes = vec![Node::Leaf(root_leaf)];
        self.instances_seen = 0;
        self.splits_performed = 0;
    }

    /// Number of training records seen since construction or [`reset`].
    ///
    /// [`reset`]: HoeffdingTree::reset
    pub fn instances_seen(&self) -> u64 {
        self.instances_seen
    }

    /// Renders the tree as an indented, human-readable outline — split
    /// tests on internal nodes, class counts on leaves. Intended for
    /// debugging and operator dashboards, not for parsing.
    pub fn describe(&self) -> String {
        let mut out = String::new();
        self.describe_node(0, 0, &mut out);
        out
    }

    fn describe_node(&self, id: NodeId, indent: usize, out: &mut String) {
        let pad = "  ".repeat(indent);
        match &self.nodes[id] {
            Node::Leaf(leaf) => {
                let counts: Vec<String> = leaf.counts.iter().map(|c| format!("{c:.0}")).collect();
                out.push_str(&format!(
                    "{pad}leaf depth={} majority={:?} counts=[{}]\n",
                    leaf.depth,
                    leaf.counts.majority(),
                    counts.join(", ")
                ));
            }
            Node::CatSplit { attr, children } => {
                let name = self.schema.attributes()[*attr].name();
                out.push_str(&format!("{pad}split on {name} (categorical)\n"));
                for (v, &child) in children.iter().enumerate() {
                    out.push_str(&format!("{pad}  = {v}:\n"));
                    self.describe_node(child, indent + 2, out);
                }
            }
            Node::NumSplit {
                attr,
                threshold,
                left,
                right,
            } => {
                let name = self.schema.attributes()[*attr].name();
                out.push_str(&format!("{pad}split on {name} <= {threshold:.4}\n"));
                self.describe_node(*left, indent + 1, out);
                out.push_str(&format!("{pad}else ({name} > {threshold:.4})\n"));
                self.describe_node(*right, indent + 1, out);
            }
        }
    }

    fn leaf_mut(&mut self, id: NodeId) -> &mut LeafNode {
        match &mut self.nodes[id] {
            Node::Leaf(l) => l,
            _ => unreachable!("expected leaf"),
        }
    }

    fn sort_to_leaf(&self, instance: &Instance) -> NodeId {
        self.sort_to_leaf_ref(instance)
    }

    fn sort_to_leaf_ref(&self, instance: &Instance) -> NodeId {
        let mut id = 0;
        loop {
            match &self.nodes[id] {
                Node::Leaf(_) => return id,
                Node::CatSplit { attr, children } => {
                    let v = instance[*attr].as_cat() as usize;
                    id = children[v];
                }
                Node::NumSplit {
                    attr,
                    threshold,
                    left,
                    right,
                } => {
                    id = if instance[*attr].as_num() <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    /// Evaluates candidate splits at `leaf_id` and splits if the Hoeffding
    /// bound allows.
    fn try_split(&mut self, leaf_id: NodeId) {
        let (pre_entropy, total, depth, candidates) = {
            let Node::Leaf(leaf) = &self.nodes[leaf_id] else {
                unreachable!()
            };
            let mut cands: Vec<Candidate> = Vec::with_capacity(self.schema.num_attributes());
            let pre = leaf.counts.entropy();
            for (attr, obs) in leaf.observers.iter().enumerate() {
                if let Some(c) = self.best_split_for(attr, obs, pre) {
                    cands.push(c);
                }
            }
            (pre, leaf.counts.total(), leaf.depth, cands)
        };
        // Mark evaluation time regardless of outcome so we wait another
        // grace period before re-evaluating.
        self.leaf_mut(leaf_id).weight_at_last_eval = total;

        if candidates.is_empty() || total <= 0.0 {
            return;
        }
        let mut sorted = candidates;
        // LINT-ALLOW(no-panic): gains are computed from finite counts, so partial_cmp succeeds
        sorted.sort_by(|a, b| b.gain.partial_cmp(&a.gain).expect("gains are finite"));
        let best_gain = sorted[0].gain;
        let second_gain = if sorted.len() > 1 {
            sorted[1].gain
        } else {
            0.0
        };
        // Range of information gain is log2(num_classes).
        let range = f64::from(self.schema.num_classes()).log2();
        let eps = hoeffding_bound(range, self.config.split_confidence, total as u64);
        let decided = best_gain - second_gain > eps || eps < self.config.tie_threshold;
        // A split must beat the no-split option (gain 0) by the same margin.
        if !decided || best_gain <= eps.min(pre_entropy) || best_gain <= 0.0 {
            return;
        }
        let winner = sorted.remove(0);
        self.apply_split(leaf_id, winner, depth);
    }

    fn best_split_for(&self, attr: usize, obs: &Observer, pre_entropy: f64) -> Option<Candidate> {
        match obs {
            Observer::Categorical(table) => {
                let gain = pre_entropy - partition_entropy(table);
                if !gain.is_finite() {
                    return None;
                }
                Some(Candidate {
                    gain,
                    attr,
                    threshold: None,
                    child_counts: table.clone(),
                })
            }
            Observer::Numeric(gaussians) => {
                let lo = gaussians
                    .iter()
                    .filter_map(GaussianEstimator::min)
                    .fold(f64::INFINITY, f64::min);
                let hi = gaussians
                    .iter()
                    .filter_map(GaussianEstimator::max)
                    .fold(f64::NEG_INFINITY, f64::max);
                if !lo.is_finite() || !hi.is_finite() || hi <= lo {
                    return None;
                }
                let k = self.config.num_split_points;
                let mut best: Option<Candidate> = None;
                for i in 1..=k {
                    let t = lo + (hi - lo) * i as f64 / (k + 1) as f64;
                    let mut left = ClassCounts::new(self.schema.num_classes());
                    let mut right = ClassCounts::new(self.schema.num_classes());
                    for (class, g) in gaussians.iter().enumerate() {
                        let below = g.weight_below(t);
                        left.add(class as u32, below);
                        right.add(class as u32, (g.weight() - below).max(0.0));
                    }
                    if left.total() <= 0.0 || right.total() <= 0.0 {
                        continue;
                    }
                    let gain = pre_entropy - partition_entropy(&[left.clone(), right.clone()]);
                    if gain.is_finite() && best.as_ref().is_none_or(|b| gain > b.gain) {
                        best = Some(Candidate {
                            gain,
                            attr,
                            threshold: Some(t),
                            child_counts: vec![left, right],
                        });
                    }
                }
                best
            }
        }
    }

    fn apply_split(&mut self, leaf_id: NodeId, cand: Candidate, depth: usize) {
        let children: Vec<NodeId> = cand
            .child_counts
            .into_iter()
            .map(|seed| {
                let id = self.nodes.len();
                self.nodes.push(Node::Leaf(LeafNode::new(
                    &self.schema,
                    depth + 1,
                    Some(seed),
                )));
                id
            })
            .collect();
        self.nodes[leaf_id] = match cand.threshold {
            None => Node::CatSplit {
                attr: cand.attr,
                children,
            },
            Some(t) => Node::NumSplit {
                attr: cand.attr,
                threshold: t,
                left: children[0],
                right: children[1],
            },
        };
        self.splits_performed += 1;
    }
}

impl LeafNode {
    /// The leaf's counters; the observers' shapes are the schema's.
    fn persist_state(&self, w: &mut PersistWriter) {
        self.counts.persist_state(w);
        for obs in &self.observers {
            match obs {
                Observer::Categorical(table) => table.iter().for_each(|c| c.persist_state(w)),
                Observer::Numeric(gaussians) => gaussians.iter().for_each(|g| g.persist(w)),
            }
        }
        w.put_f64(self.weight_at_last_eval);
    }

    /// Reads [`LeafNode::persist_state`]'s counters into this empty leaf.
    fn restore_state(&mut self, r: &mut PersistReader<'_>) -> Result<(), PersistError> {
        self.counts.restore_state(r)?;
        for obs in &mut self.observers {
            match obs {
                Observer::Categorical(table) => {
                    for counts in table {
                        counts.restore_state(r)?;
                    }
                }
                Observer::Numeric(gaussians) => {
                    for g in gaussians {
                        *g = GaussianEstimator::restore(r)?;
                    }
                }
            }
        }
        self.weight_at_last_eval = r.take_f64("LeafNode.weight_at_last_eval")?;
        Ok(())
    }
}

/// Section tag for the Hoeffding tree's snapshot frame.
const TREE_TAG: u32 = 0x40ef_d7ee;

impl HoeffdingTree {
    /// Writes what training grew: the counters and the node arena. A leaf
    /// is its statistics, a split its attribute and then its threshold and
    /// children; the schema and configuration are the caller's, and so are
    /// the shapes they fix (statistics per attribute and class, one child
    /// per categorical value, which kind of split an attribute takes).
    /// Depths follow from the splits and are not written.
    pub fn persist(&self, w: &mut PersistWriter) {
        w.section(TREE_TAG, |w| {
            w.put_u64(self.instances_seen);
            w.put_usize(self.splits_performed);
            w.put_usize(self.nodes.len());
            for node in &self.nodes {
                match node {
                    Node::Leaf(leaf) => {
                        w.put_u8(0);
                        leaf.persist_state(w);
                    }
                    Node::CatSplit { attr, children } => {
                        w.put_u8(1);
                        w.put_usize(*attr);
                        children.iter().for_each(|&c| w.put_usize(c));
                    }
                    Node::NumSplit {
                        attr,
                        threshold,
                        left,
                        right,
                    } => {
                        w.put_u8(1);
                        w.put_usize(*attr);
                        w.put_f64(*threshold);
                        w.put_usize(*left);
                        w.put_usize(*right);
                    }
                }
            }
        });
    }

    /// Reads what [`HoeffdingTree::persist`] wrote into a new tree over
    /// `schema` and `config`, which must be the writer's. Every split's
    /// children must follow it in the arena, and every node but the root
    /// must be exactly one split's child, or the input is corrupt.
    pub fn restore(
        r: &mut PersistReader<'_>,
        schema: Schema,
        config: HoeffdingTreeConfig,
    ) -> Result<Self, PersistError> {
        let corrupt = |detail: String| PersistError::Corrupt {
            context: "HoeffdingTree.nodes",
            detail,
        };
        let section = r.begin_section(TREE_TAG, "HoeffdingTree")?;
        let mut tree = HoeffdingTree::new(schema, config);
        tree.instances_seen = r.take_u64("HoeffdingTree.instances_seen")?;
        tree.splits_performed = r.take_usize("HoeffdingTree.splits_performed")?;
        let len = r.take_len("HoeffdingTree.nodes")?;
        if len == 0 {
            return Err(corrupt("tree has no root".into()));
        }
        tree.nodes.clear();
        for id in 0..len {
            let node = match r.take_u8("Node.discriminant")? {
                0 => {
                    let mut leaf = LeafNode::new(&tree.schema, 0, None);
                    leaf.restore_state(r)?;
                    Node::Leaf(leaf)
                }
                1 => {
                    let attr = r.take_usize("Node.attr")?;
                    match tree.schema.attributes().get(attr) {
                        Some(AttributeSpec::Categorical { arity, .. }) => Node::CatSplit {
                            attr,
                            children: (0..*arity)
                                .map(|_| r.take_usize("Node.child"))
                                .collect::<Result<_, _>>()?,
                        },
                        Some(AttributeSpec::Numeric { .. }) => Node::NumSplit {
                            attr,
                            threshold: r.take_f64("Node.threshold")?,
                            left: r.take_usize("Node.left")?,
                            right: r.take_usize("Node.right")?,
                        },
                        None => {
                            return Err(corrupt(format!("node {id} splits on attribute {attr}")))
                        }
                    }
                }
                d => return Err(corrupt(format!("node {id} has unknown kind {d}"))),
            };
            tree.nodes.push(node);
        }
        r.finish_section(section, "HoeffdingTree")?;
        // Depths, from the root down: a child's is its parent's plus one.
        let mut depth: Vec<Option<usize>> = vec![None; len];
        depth[0] = Some(0);
        for id in 0..len {
            let children: &[NodeId] = match &tree.nodes[id] {
                Node::Leaf(_) => continue,
                Node::CatSplit { children, .. } => children,
                Node::NumSplit { left, right, .. } => &[*left, *right],
            };
            let child_depth = depth[id].map(|d| d + 1);
            for &c in children {
                if c <= id || c >= len || depth[c].is_some() {
                    return Err(corrupt(format!("node {id} links child {c} out of order")));
                }
                depth[c] = child_depth;
            }
        }
        for (id, node) in tree.nodes.iter_mut().enumerate() {
            let d = depth[id].ok_or_else(|| corrupt(format!("node {id} is no split's child")))?;
            if let Node::Leaf(leaf) = node {
                leaf.depth = d;
            }
        }
        Ok(tree)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cat_schema() -> Schema {
        Schema::new(
            vec![
                AttributeSpec::categorical("a", 4),
                AttributeSpec::categorical("noise", 3),
            ],
            2,
        )
    }

    #[test]
    fn empty_tree_predicts_class_zero() {
        let tree = HoeffdingTree::new(cat_schema(), HoeffdingTreeConfig::default());
        assert_eq!(tree.predict(&vec![Value::Cat(0), Value::Cat(0)]), 0);
        assert_eq!(tree.stats().leaves, 1);
        assert_eq!(tree.stats().splits, 0);
    }

    #[test]
    fn learns_categorical_concept() {
        // class = (a == 1), noise attribute irrelevant.
        let mut tree = HoeffdingTree::new(cat_schema(), HoeffdingTreeConfig::default());
        let mut x = 0u32;
        for _ in 0..5_000 {
            x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            let a = (x >> 8) % 4;
            let noise = (x >> 16) % 3;
            tree.train(&vec![Value::Cat(a), Value::Cat(noise)], u32::from(a == 1));
        }
        assert!(tree.stats().splits >= 1, "tree never split");
        for a in 0..4 {
            for noise in 0..3 {
                let p = tree.predict(&vec![Value::Cat(a), Value::Cat(noise)]);
                assert_eq!(p, u32::from(a == 1), "a={a} noise={noise}");
            }
        }
    }

    #[test]
    fn learns_numeric_threshold() {
        let schema = Schema::new(vec![AttributeSpec::numeric("x")], 2);
        let mut tree = HoeffdingTree::new(schema, HoeffdingTreeConfig::default());
        let mut x = 1u32;
        for _ in 0..8_000 {
            x = x.wrapping_mul(22_695_477).wrapping_add(1);
            let v = f64::from(x >> 16) / f64::from(u16::MAX); // [0,1]
            tree.train(&vec![Value::Num(v)], u32::from(v > 0.5));
        }
        assert!(tree.stats().splits >= 1);
        assert_eq!(tree.predict(&vec![Value::Num(0.1)]), 0);
        assert_eq!(tree.predict(&vec![Value::Num(0.9)]), 1);
    }

    #[test]
    fn learns_conjunction_with_depth() {
        // class = (a == 0 AND x > 0.5): needs a two-level tree.
        let schema = Schema::new(
            vec![
                AttributeSpec::categorical("a", 2),
                AttributeSpec::numeric("x"),
            ],
            2,
        );
        let mut tree = HoeffdingTree::new(schema, HoeffdingTreeConfig::default());
        let mut s = 7u32;
        for _ in 0..30_000 {
            s = s.wrapping_mul(134_775_813).wrapping_add(1);
            let a = (s >> 7) % 2;
            let x = f64::from(s >> 16) / f64::from(u16::MAX);
            let label = u32::from(a == 0 && x > 0.5);
            tree.train(&vec![Value::Cat(a), Value::Num(x)], label);
        }
        let acc = {
            let mut correct = 0;
            let mut total = 0;
            for a in 0..2 {
                for xi in 0..20 {
                    let x = (xi as f64 + 0.5) / 20.0;
                    let want = u32::from(a == 0 && x > 0.5);
                    if tree.predict(&vec![Value::Cat(a), Value::Num(x)]) == want {
                        correct += 1;
                    }
                    total += 1;
                }
            }
            correct as f64 / total as f64
        };
        assert!(acc > 0.9, "accuracy too low: {acc}");
        assert!(tree.stats().depth >= 1);
    }

    #[test]
    fn pure_stream_never_splits() {
        let mut tree = HoeffdingTree::new(cat_schema(), HoeffdingTreeConfig::default());
        for i in 0..2_000u32 {
            tree.train(&vec![Value::Cat(i % 4), Value::Cat(i % 3)], 0);
        }
        assert_eq!(tree.stats().splits, 0, "pure stream must not split");
        assert_eq!(tree.predict(&vec![Value::Cat(0), Value::Cat(0)]), 0);
    }

    #[test]
    fn reset_clears_structure() {
        let mut tree = HoeffdingTree::new(cat_schema(), HoeffdingTreeConfig::default());
        for i in 0..3_000u32 {
            tree.train(
                &vec![Value::Cat(i % 4), Value::Cat(i % 3)],
                u32::from(i % 4 == 2),
            );
        }
        assert!(tree.stats().splits > 0);
        tree.reset();
        let s = tree.stats();
        assert_eq!((s.nodes, s.splits, s.instances_seen), (1, 0, 0));
    }

    #[test]
    fn max_depth_caps_growth() {
        let schema = Schema::new(
            vec![AttributeSpec::numeric("x"), AttributeSpec::numeric("y")],
            2,
        );
        let config = HoeffdingTreeConfig {
            max_depth: 1,
            ..HoeffdingTreeConfig::default()
        };
        let mut tree = HoeffdingTree::new(schema, config);
        let mut s = 3u32;
        for _ in 0..20_000 {
            s = s.wrapping_mul(134_775_813).wrapping_add(97);
            let x = f64::from(s >> 16) / f64::from(u16::MAX);
            let y = f64::from((s >> 4) & 0xFFF) / 4096.0;
            // XOR-ish concept would love depth 2+.
            let label = u32::from((x > 0.5) ^ (y > 0.5));
            tree.train(&vec![Value::Num(x), Value::Num(y)], label);
        }
        assert!(tree.stats().depth <= 1, "depth cap violated");
    }

    #[test]
    #[should_panic(expected = "invalid instance")]
    fn train_rejects_bad_instance() {
        let mut tree = HoeffdingTree::new(cat_schema(), HoeffdingTreeConfig::default());
        tree.train(&vec![Value::Num(0.0), Value::Cat(0)], 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn train_rejects_bad_class() {
        let mut tree = HoeffdingTree::new(cat_schema(), HoeffdingTreeConfig::default());
        tree.train(&vec![Value::Cat(0), Value::Cat(0)], 9);
    }

    #[test]
    fn describe_renders_structure() {
        let mut tree = HoeffdingTree::new(cat_schema(), HoeffdingTreeConfig::default());
        // Untrained: a single leaf.
        let empty = tree.describe();
        assert!(empty.contains("leaf depth=0"));
        let mut x = 0u32;
        for _ in 0..5_000 {
            x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            let a = (x >> 8) % 4;
            tree.train(
                &vec![Value::Cat(a), Value::Cat((x >> 16) % 3)],
                u32::from(a == 1),
            );
        }
        let text = tree.describe();
        assert!(text.contains("split on a (categorical)"), "{text}");
        assert!(text.matches("leaf").count() >= 4, "{text}");
    }

    #[test]
    fn instances_seen_counts() {
        let mut tree = HoeffdingTree::new(cat_schema(), HoeffdingTreeConfig::default());
        for i in 0..10u32 {
            tree.train(&vec![Value::Cat(i % 4), Value::Cat(0)], 0);
        }
        assert_eq!(tree.instances_seen(), 10);
        assert_eq!(tree.stats().instances_seen, 10);
    }

    /// A trained tree snapshots and restores bit-identically: predictions
    /// agree on a grid, and continued training evolves both trees the same
    /// way (split timing included, since grace-period clocks ride along).
    #[test]
    fn persist_round_trip_is_bit_identical_under_continued_training() {
        let schema = Schema::new(
            vec![
                AttributeSpec::categorical("a", 3),
                AttributeSpec::numeric("x"),
            ],
            3,
        );
        let mut tree = HoeffdingTree::new(schema, HoeffdingTreeConfig::default());
        let mut s = 29u32;
        let mut gen = move || {
            s = s.wrapping_mul(747_796_405).wrapping_add(2_891_336_453);
            let a = (s >> 9) % 3;
            let x = f64::from(s >> 16) / f64::from(u16::MAX);
            let label = if a == 0 {
                0
            } else if x > 0.6 {
                1
            } else {
                2
            };
            (vec![Value::Cat(a), Value::Num(x)], label)
        };
        for _ in 0..6_000 {
            let (inst, label) = gen();
            tree.train(&inst, label);
        }
        assert!(tree.stats().splits >= 1, "tree never split");
        let mut w = PersistWriter::new();
        tree.persist(&mut w);
        let bytes = w.into_bytes();
        let schema = tree.schema().clone();
        let restore = |bytes: &[u8]| {
            let mut r = PersistReader::new(bytes);
            let tree =
                HoeffdingTree::restore(&mut r, schema.clone(), HoeffdingTreeConfig::default())?;
            assert!(r.is_exhausted());
            Ok::<_, PersistError>(tree)
        };
        let mut restored = restore(&bytes).expect("restore");
        assert_eq!(restored.stats(), tree.stats());
        assert_eq!(restored.describe(), tree.describe());
        // Continued training must stay in lockstep — same split decisions
        // at the same records.
        for _ in 0..6_000 {
            let (inst, label) = gen();
            tree.train(&inst, label);
            restored.train(&inst, label);
        }
        assert_eq!(restored.stats(), tree.stats());
        for a in 0..3 {
            for xi in 0..20 {
                let inst = vec![Value::Cat(a), Value::Num((xi as f64 + 0.5) / 20.0)];
                assert_eq!(restored.predict_weights(&inst), tree.predict_weights(&inst));
            }
        }
        // Truncation is a typed error, not a panic; so is a split whose
        // child points back at it (node 0 is the root split; its first
        // child id follows the discriminant and the attribute).
        assert!(restore(&bytes[..bytes.len() - 7]).is_err());
        let mut cyclic = bytes.clone();
        let first_child = 12 + 8 + 8 + 8 + 1 + 8;
        assert_eq!(cyclic[first_child - 9], 1, "the root is a split");
        cyclic[first_child..first_child + 8].copy_from_slice(&0u64.to_le_bytes());
        match restore(&cyclic) {
            Err(PersistError::Corrupt { context, .. }) => {
                assert_eq!(context, "HoeffdingTree.nodes");
            }
            other => panic!("a cycle restored as {:?}", other.map(|_| ())),
        }
    }

    /// The drift detector's thresholds (`p_min`/`s_min` and the warm-up
    /// clock) round-trip, so a restored detector fires at the same record.
    #[test]
    fn ddm_detector_round_trips() {
        use crate::drift::{DdmDetector, DriftState};
        let mut d = DdmDetector::new(30);
        let mut s = 11u32;
        for _ in 0..1_000 {
            s = s.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            d.observe((s >> 16) % 100 < 5);
        }
        let mut w = PersistWriter::new();
        d.persist_state(&mut w);
        let bytes = w.into_bytes();
        let mut r = PersistReader::new(&bytes);
        let mut restored = DdmDetector::new(30);
        restored.restore_state(&mut r).expect("restore");
        assert!(r.is_exhausted());
        assert_eq!(restored.observations(), d.observations());
        assert_eq!(restored.error_rate(), d.error_rate());
        // Degrade both in lockstep: identical verdict sequences.
        for _ in 0..1_000 {
            s = s.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            let err = (s >> 16) % 100 < 60;
            let (a, b) = (d.observe(err), restored.observe(err));
            assert_eq!(a, b);
            if a == DriftState::Drift {
                break;
            }
        }
        // A fresh detector (infinite p_min/s_min sentinels) round-trips too.
        let fresh = DdmDetector::new(50);
        let mut w = PersistWriter::new();
        fresh.persist_state(&mut w);
        let bytes = w.into_bytes();
        let mut r = PersistReader::new(&bytes);
        let mut restored = DdmDetector::new(50);
        restored.restore_state(&mut r).expect("fresh restore");
        assert_eq!(restored.observations(), 0);
    }

    #[test]
    fn accuracy_improves_with_training() {
        // The §V-D claim in miniature: model accuracy rises as records stream in.
        let schema = Schema::new(
            vec![
                AttributeSpec::categorical("a", 3),
                AttributeSpec::numeric("x"),
            ],
            3,
        );
        let mut tree = HoeffdingTree::new(schema, HoeffdingTreeConfig::default());
        let mut s = 11u32;
        let mut gen = move || {
            s = s.wrapping_mul(747_796_405).wrapping_add(2_891_336_453);
            let a = (s >> 9) % 3;
            let x = f64::from(s >> 16) / f64::from(u16::MAX);
            let label = if a == 0 {
                0
            } else if x > 0.6 {
                1
            } else {
                2
            };
            (vec![Value::Cat(a), Value::Num(x)], label)
        };
        let eval = |tree: &HoeffdingTree, gen: &mut dyn FnMut() -> (Instance, u32)| {
            let mut ok = 0;
            for _ in 0..500 {
                let (inst, label) = gen();
                if tree.predict(&inst) == label {
                    ok += 1;
                }
            }
            ok as f64 / 500.0
        };
        let early = eval(&tree, &mut gen);
        for _ in 0..20_000 {
            let (inst, label) = gen();
            tree.train(&inst, label);
        }
        let late = eval(&tree, &mut gen);
        assert!(
            late > early + 0.2,
            "no learning progress: early={early} late={late}"
        );
        assert!(late > 0.9, "final accuracy too low: {late}");
    }
}
