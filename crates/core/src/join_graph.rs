//! Join correspondences via Steiner-tree enumeration over the target
//! schema's join graph (Section 5 of the paper, "Sketch generation").
//!
//! Nodes of the join graph are the tables of the target schema; an edge
//! connects two tables that can be equi-joined (shared column name or
//! declared foreign key). Given the set of target attributes a statement
//! must reach, the sketch generator needs every join chain that *covers*
//! the tables containing those attributes; such chains correspond to
//! Steiner trees spanning the terminal tables.
//!
//! Enumeration is bounded: trees may use at most `max_extra` non-terminal
//! (Steiner) tables. For each admissible table subset one canonical
//! spanning chain is produced (tables are connected greedily on the first
//! available join attribute pair), which is sufficient for the benchmark
//! schemas where any two tables share at most one join column.

use std::collections::BTreeSet;

use dbir::ast::JoinChain;
use dbir::schema::{Schema, TableName};

/// The join graph of a target schema.
#[derive(Debug)]
pub struct JoinGraph<'a> {
    schema: &'a Schema,
    tables: Vec<TableName>,
}

impl<'a> JoinGraph<'a> {
    /// Builds the join graph of `schema`.
    pub fn new(schema: &'a Schema) -> JoinGraph<'a> {
        JoinGraph {
            schema,
            tables: schema.tables().iter().map(|t| t.name).collect(),
        }
    }

    /// The underlying schema.
    pub fn schema(&self) -> &Schema {
        self.schema
    }

    /// Returns `true` if the two tables are adjacent in the join graph.
    pub fn adjacent(&self, a: &TableName, b: &TableName) -> bool {
        self.schema.joinable(a, b)
    }

    /// Returns `true` if `tables` induces a connected subgraph.
    pub fn is_connected(&self, tables: &BTreeSet<TableName>) -> bool {
        let Some(start) = tables.iter().next() else {
            return true;
        };
        let mut visited: BTreeSet<&TableName> = BTreeSet::new();
        let mut stack = vec![start];
        while let Some(table) = stack.pop() {
            if !visited.insert(table) {
                continue;
            }
            for other in tables {
                if !visited.contains(other) && self.adjacent(table, other) {
                    stack.push(other);
                }
            }
        }
        visited.len() == tables.len()
    }

    /// Partitions a set of tables into the connected components they belong
    /// to when considering the *full* join graph (i.e. two required tables
    /// are in the same component if some chain through other tables links
    /// them).
    pub fn components(&self, tables: &BTreeSet<TableName>) -> Vec<BTreeSet<TableName>> {
        let mut remaining: BTreeSet<TableName> = tables.clone();
        let mut components = Vec::new();
        while let Some(seed) = remaining.iter().next().cloned() {
            // Flood fill over the whole graph starting from `seed`.
            let mut reachable: BTreeSet<TableName> = BTreeSet::new();
            let mut stack = vec![seed];
            while let Some(table) = stack.pop() {
                if !reachable.insert(table) {
                    continue;
                }
                for other in &self.tables {
                    if !reachable.contains(other) && self.adjacent(&table, other) {
                        stack.push(*other);
                    }
                }
            }
            let component: BTreeSet<TableName> = remaining
                .iter()
                .filter(|t| reachable.contains(*t))
                .cloned()
                .collect();
            for table in &component {
                remaining.remove(table);
            }
            components.push(component);
        }
        components
    }

    /// Enumerates join chains that span (at least) the given terminal
    /// tables, using at most `max_extra` additional Steiner tables.
    ///
    /// Chains are returned in increasing size; each admissible table subset
    /// contributes one canonical chain. Returns an empty vector if the
    /// terminals cannot be connected within the bound.
    pub fn covering_chains(
        &self,
        terminals: &BTreeSet<TableName>,
        max_extra: usize,
    ) -> Vec<JoinChain> {
        if terminals.is_empty() {
            return Vec::new();
        }
        let mut chains = Vec::new();
        let mut seen_subsets: BTreeSet<Vec<TableName>> = BTreeSet::new();
        let extras: Vec<TableName> = self
            .tables
            .iter()
            .filter(|t| !terminals.contains(*t))
            .cloned()
            .collect();

        // Enumerate subsets of extra tables of size 0..=max_extra.
        let mut extra_choices: Vec<Vec<TableName>> = vec![Vec::new()];
        for size in 1..=max_extra.min(extras.len()) {
            extra_choices.extend(combinations(&extras, size));
        }
        extra_choices.sort_by_key(Vec::len);

        for extra in extra_choices {
            let mut subset: BTreeSet<TableName> = terminals.clone();
            subset.extend(extra.iter().cloned());
            let key: Vec<TableName> = subset.iter().cloned().collect();
            if seen_subsets.contains(&key) {
                continue;
            }
            seen_subsets.insert(key);
            if !self.is_connected(&subset) {
                continue;
            }
            if let Some(chain) = self.spanning_chain(&subset) {
                chains.push(chain);
            }
        }
        chains
    }

    /// Enumerates *sets* of join chains that together cover the terminal
    /// tables — one chain per connected component. Used for insert
    /// statements, where writing two unconnected target tables is expressed
    /// as a sequence of inserts.
    ///
    /// Each alternative is a vector of chains; when all terminals are
    /// connected this degenerates to single-chain alternatives.
    pub fn covering_chain_sets(
        &self,
        terminals: &BTreeSet<TableName>,
        max_extra: usize,
    ) -> Vec<Vec<JoinChain>> {
        let components = self.components(terminals);
        if components.is_empty() {
            return Vec::new();
        }
        if components.len() == 1 {
            return self
                .covering_chains(terminals, max_extra)
                .into_iter()
                .map(|c| vec![c])
                .collect();
        }
        // Cartesian product of per-component chains.
        let per_component: Vec<Vec<JoinChain>> = components
            .iter()
            .map(|component| self.covering_chains(component, max_extra))
            .collect();
        if per_component.iter().any(Vec::is_empty) {
            return Vec::new();
        }
        let mut alternatives: Vec<Vec<JoinChain>> = vec![Vec::new()];
        for chains in per_component {
            let mut next = Vec::new();
            for alternative in &alternatives {
                for chain in &chains {
                    let mut extended = alternative.clone();
                    extended.push(chain.clone());
                    next.push(extended);
                }
            }
            alternatives = next;
        }
        alternatives
    }

    /// Builds one canonical spanning join chain over a connected table set.
    fn spanning_chain(&self, tables: &BTreeSet<TableName>) -> Option<JoinChain> {
        let mut ordered: Vec<TableName> = tables.iter().cloned().collect();
        // Deterministic order: keep BTreeSet order but start from the table
        // with the most connections inside the subset so the greedy chain
        // construction succeeds whenever the subset is connected.
        ordered.sort_by_key(|t| {
            std::cmp::Reverse(
                tables
                    .iter()
                    .filter(|other| self.adjacent(t, other))
                    .count(),
            )
        });
        let mut chain = JoinChain::Table(ordered[0]);
        let mut in_chain: BTreeSet<TableName> = [ordered[0]].into_iter().collect();
        let mut remaining: Vec<TableName> = ordered.iter().skip(1).cloned().collect();
        while !remaining.is_empty() {
            // Find the next table adjacent to something already in the chain.
            let position = remaining
                .iter()
                .position(|candidate| in_chain.iter().any(|t| self.adjacent(t, candidate)))?;
            let table = remaining.remove(position);
            let (left_attr, right_attr) = in_chain
                .iter()
                .find_map(|t| self.schema.join_attrs(t, &table).into_iter().next())
                .expect("adjacency implies a join attribute pair");
            chain = chain.join(JoinChain::Table(table), left_attr, right_attr);
            in_chain.insert(table);
        }
        Some(chain)
    }
}

/// All `size`-element combinations of `items` (order preserved).
fn combinations<T: Clone>(items: &[T], size: usize) -> Vec<Vec<T>> {
    if size == 0 {
        return vec![Vec::new()];
    }
    if items.len() < size {
        return Vec::new();
    }
    let mut result = Vec::new();
    for (i, item) in items.iter().enumerate() {
        for mut rest in combinations(&items[i + 1..], size - 1) {
            let mut combo = vec![item.clone()];
            combo.append(&mut rest);
            result.push(combo);
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn target_schema() -> Schema {
        Schema::parse(
            "Class(ClassId: int, InstId: int, TaId: int)\n\
             Instructor(InstId: int, IName: string, PicId: id)\n\
             TA(TaId: int, TName: string, PicId: id)\n\
             Picture(PicId: id, Pic: binary)",
        )
        .unwrap()
    }

    fn names(set: &[&str]) -> BTreeSet<TableName> {
        set.iter().map(|s| TableName::new(*s)).collect()
    }

    #[test]
    fn adjacency_follows_shared_columns() {
        let schema = target_schema();
        let graph = JoinGraph::new(&schema);
        assert!(graph.adjacent(&"Picture".into(), &"Instructor".into()));
        assert!(graph.adjacent(&"Picture".into(), &"TA".into()));
        assert!(graph.adjacent(&"Class".into(), &"Instructor".into()));
        assert!(!graph.adjacent(&"Picture".into(), &"Class".into()));
    }

    #[test]
    fn connectivity_checks() {
        let schema = target_schema();
        let graph = JoinGraph::new(&schema);
        assert!(graph.is_connected(&names(&["Picture", "Instructor"])));
        assert!(graph.is_connected(&names(&["Picture", "Instructor", "Class"])));
        assert!(!graph.is_connected(&names(&["Picture", "Class"])));
        assert!(graph.is_connected(&BTreeSet::new()));
    }

    #[test]
    fn covering_chains_match_motivating_example() {
        // The sketch in Figure 3 offers chains covering Picture and
        // Instructor: the direct join plus chains routed through TA and/or
        // Class (the paper lists three; our enumerator additionally finds
        // the Picture ⋈ Instructor ⋈ Class variant).
        let schema = target_schema();
        let graph = JoinGraph::new(&schema);
        let terminals = names(&["Picture", "Instructor"]);
        let chains = graph.covering_chains(&terminals, 2);
        assert_eq!(chains.len(), 4);
        let sizes: Vec<usize> = chains.iter().map(JoinChain::len).collect();
        assert_eq!(sizes, vec![2, 3, 3, 4]);
        for chain in &chains {
            assert!(chain.contains_table(&"Picture".into()));
            assert!(chain.contains_table(&"Instructor".into()));
        }
    }

    #[test]
    fn covering_chains_respect_steiner_bound() {
        let schema = target_schema();
        let graph = JoinGraph::new(&schema);
        let terminals = names(&["Picture", "Instructor"]);
        assert_eq!(graph.covering_chains(&terminals, 0).len(), 1);
        assert_eq!(graph.covering_chains(&terminals, 1).len(), 3);
    }

    #[test]
    fn unreachable_terminals_produce_no_chains() {
        let schema = Schema::parse("A(x: int)\nB(y: int)").unwrap();
        let graph = JoinGraph::new(&schema);
        let chains = graph.covering_chains(&names(&["A", "B"]), 2);
        assert!(chains.is_empty());
    }

    #[test]
    fn chain_sets_split_disconnected_terminals() {
        let schema = Schema::parse("A(x: int)\nB(y: int)").unwrap();
        let graph = JoinGraph::new(&schema);
        let sets = graph.covering_chain_sets(&names(&["A", "B"]), 2);
        assert_eq!(sets.len(), 1);
        assert_eq!(sets[0].len(), 2);
    }

    #[test]
    fn chain_sets_degenerate_to_single_chains_when_connected() {
        let schema = target_schema();
        let graph = JoinGraph::new(&schema);
        let sets = graph.covering_chain_sets(&names(&["Picture", "TA"]), 2);
        assert!(!sets.is_empty());
        assert!(sets.iter().all(|s| s.len() == 1));
    }

    #[test]
    fn components_of_scattered_tables() {
        let schema = Schema::parse("A(x: int)\nB(x: int)\nC(y: int)\nD(z: int)").unwrap();
        let graph = JoinGraph::new(&schema);
        let comps = graph.components(&names(&["A", "B", "C"]));
        assert_eq!(comps.len(), 2);
    }

    #[test]
    fn combinations_enumeration() {
        let items = vec![1, 2, 3, 4];
        assert_eq!(combinations(&items, 0).len(), 1);
        assert_eq!(combinations(&items, 1).len(), 4);
        assert_eq!(combinations(&items, 2).len(), 6);
        assert_eq!(combinations(&items, 4).len(), 1);
        assert_eq!(combinations(&items, 5).len(), 0);
    }

    #[test]
    fn single_terminal_yields_single_table_chain() {
        let schema = target_schema();
        let graph = JoinGraph::new(&schema);
        let chains = graph.covering_chains(&names(&["Picture"]), 0);
        assert_eq!(chains, vec![JoinChain::table("Picture")]);
    }
}
